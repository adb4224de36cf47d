// Package stack captures, interns and symbolises call stacks.
//
// It is the analogue of PIN_Backtrace in the original Mumak: stacks
// identify unique code paths leading to failure points, and the package
// filters out instrumentation frames so that reports show only the
// application's own calls (§5 of the paper). One rule decides which
// frames belong to the application, for bug paths and panic traces
// alike (see nonApplication).
//
// An interned stack is the list of logical return PCs that
// runtime.Callers reports, trimmed. Walking it is the expensive part of
// a capture, and a campaign captures the same few hundred call chains
// hundreds of thousands of times. So on amd64 Capture first follows the
// goroutine's frame-pointer chain, which costs a few nanoseconds per
// frame, and looks the physical return PCs up in a per-Table memo. Only
// a chain it has not seen yet pays for runtime.Callers, trimming and
// interning. A probe checks the walk against runtime.Callers once per
// process; on a mismatch, on other architectures and with the purego
// build tag, every capture takes the runtime.Callers path.
package stack

import (
	"fmt"
	"path"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ID names an interned call stack within a Table.
type ID int32

// NoID, the zero ID, is the ID of the absent stack, so a value whose
// stack is never set carries none. Interned stacks get IDs from 1.
const NoID ID = 0

// maxDepth bounds captured stacks; deeper frames are truncated. 64 frames
// comfortably covers the recursive data structures under test.
const maxDepth = 64

// walkBound bounds the frame-pointer walk. A chain that has not ended
// within it is not memoised: its first maxDepth logical frames could
// depend on frames the walk never saw.
const walkBound = 256

// nonApplication lists the function-name prefixes of the frames that
// are not the application's: the Go runtime, the test runner and Mumak's
// own packages, mirroring Pin's filtering of instrumentation routines.
// Every other frame, the standard library's included, belongs to the
// application. A captured stack starts in the instrumentation and a
// panic trace in the runtime's panic machinery; below the application's
// frames come the harness that ran it and the campaign around that.
var nonApplication = []string{
	"runtime.",
	"testing.",
	"mumak/internal/core.",
	"mumak/internal/fpt.",
	"mumak/internal/harness.",
	"mumak/internal/oracle.",
	"mumak/internal/pmem.",
	"mumak/internal/stack.",
	"mumak/internal/tools",
	"mumak/internal/trace.",
}

// inApplication reports whether the call site at return PC pc belongs
// to the application.
func inApplication(pc uintptr) bool {
	// pc is a return PC; the call's own inline context is at pc-1, where
	// runtime.CallersFrames symbolises it. At pc itself an inlined
	// instrumentation call can already belong to the application frame
	// it was inlined into.
	fn := runtime.FuncForPC(pc - 1)
	if fn == nil {
		return true
	}
	name := fn.Name()
	for _, p := range nonApplication {
		if strings.HasPrefix(name, p) {
			return false
		}
	}
	return true
}

// trim returns the application's part of a call path, innermost frame
// first: it drops the leading frames that are not the application's and
// stops at the first such frame after them.
func trim(pcs []uintptr, isApp func(uintptr) bool) []uintptr {
	start := 0
	for start < len(pcs) && !isApp(pcs[start]) {
		start++
	}
	end := start
	for end < len(pcs) && isApp(pcs[end]) {
		end++
	}
	return pcs[start:end]
}

// Frame is one symbolised stack frame.
type Frame struct {
	// PC is the program counter of the call site.
	PC uintptr
	// Function is the fully qualified function name.
	Function string
	// File and Line locate the call site in source. File is the path a
	// -trimpath build prints (see trimFile), whatever the build.
	File string
	Line int
}

// String formats the frame like a debugger line.
func (f Frame) String() string {
	return fmt.Sprintf("%s at %s:%d", f.Function, f.File, f.Line)
}

// sourceRoot is a directory symbolisation puts before source files and
// what a -trimpath build prints in its place.
type sourceRoot struct{ dir, trimmed string }

// sourceRoots are this module's root directory, printed as the module
// path, and GOROOT/src, printed as nothing. Both come from the stack
// package's own frames: this function's (a file of this module) and
// runtime.Callers's (a standard-library file).
var sourceRoots = sync.OnceValue(func() [2]sourceRoot {
	pcs := make([]uintptr, 2)
	it := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
	callers, _ := it.Next()
	self, _ := it.Next()
	return [2]sourceRoot{
		{
			dir:     strings.TrimSuffix(path.Dir(self.File), "internal/stack"),
			trimmed: self.Function[:strings.Index(self.Function, "internal/stack.")],
		},
		{dir: strings.TrimSuffix(path.Dir(callers.File), "runtime")},
	}
})

// trimFile returns the path a -trimpath build prints for a source file:
// files of this module under the module path, standard-library files
// relative to GOROOT/src. Reports, panic traces and the journal records
// and verdict-cache entries that embed them then read the same whatever
// directory Mumak was built in, and however.
func trimFile(file string) string {
	for _, r := range sourceRoots() {
		if strings.HasPrefix(file, r.dir) {
			return r.trimmed + file[len(r.dir):]
		}
	}
	return file
}

// Table interns call stacks and assigns them stable IDs. It is safe for
// concurrent use.
type Table struct {
	mu sync.RWMutex
	// ids maps each interned stack, its PCs' bytes read as a string, to
	// its ID.
	ids    map[string]ID
	stacks [][]uintptr
	// captures counts Capture calls.
	captures atomic.Uint64

	// walk is the probe's verdict: whether Capture may use the
	// frame-pointer walk and the chains memo.
	walk bool
	// chains maps chainHash(skip, physical return PCs) to the memoised
	// *chain. A hit takes no lock and allocates nothing.
	chains sync.Map

	appMu sync.RWMutex
	// app caches inApplication per call-site PC.
	app map[uintptr]bool
}

// NewTable returns an empty stack table.
func NewTable() *Table {
	return &Table{
		ids:  make(map[string]ID),
		app:  make(map[uintptr]bool),
		walk: walkAgrees(),
	}
}

// chain is one memoised frame-pointer chain and the ID that
// runtime.Callers, trim and Intern gave it.
type chain struct {
	skip int
	pcs  []uintptr
	id   ID
}

// inApplication is the package's inApplication, cached per PC: the
// runtime.Callers path classifies every frame of every capture.
func (t *Table) inApplication(pc uintptr) bool {
	t.appMu.RLock()
	app, ok := t.app[pc]
	t.appMu.RUnlock()
	if !ok {
		app = inApplication(pc)
		t.appMu.Lock()
		t.app[pc] = app
		t.appMu.Unlock()
	}
	return app
}

// Capture records the calling goroutine's stack, keeps the application's
// frames (trim), and returns the interned ID. skip has the meaning of
// runtime.Callers' skip relative to Capture's caller (0 includes the
// caller itself).
//
// Capture must not be inlined: the frame-pointer chain starts at its own
// frame, so its caller's call site is the first return PC of the chain.
//
//go:noinline
func (t *Table) Capture(skip int) ID {
	t.captures.Add(1)
	if !t.walk {
		return t.capture(skip + 1)
	}
	var buf [walkBound]uintptr
	n, ended := walkFrames(framePointer(), &buf)
	if !ended {
		return t.capture(skip + 1)
	}
	pcs := buf[:n]
	h := chainHash(skip, pcs)
	if v, ok := t.chains.Load(h); ok {
		if c := v.(*chain); c.skip == skip && slices.Equal(c.pcs, pcs) {
			return c.id
		}
		// A hash collision: keep the memoised chain, walk this one.
		return t.capture(skip + 1)
	}
	id := t.capture(skip + 1)
	t.chains.LoadOrStore(h, &chain{skip: skip, pcs: slices.Clone(pcs), id: id})
	return id
}

// walkFrames follows the frame-pointer chain from fp, storing each
// frame's return PC in buf, and reports whether the chain ended (a nil
// saved frame pointer) within the bound. The loop makes no call, so the
// stack cannot move during the walk.
func walkFrames(fp unsafe.Pointer, buf *[walkBound]uintptr) (n int, ended bool) {
	for ; fp != nil; n++ {
		if n == len(buf) {
			return n, false
		}
		buf[n] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(fp)))
		fp = *(*unsafe.Pointer)(fp)
	}
	return n, true
}

// chainHash keys the chains memo. A collision only costs a slow-path
// capture, since a hit compares the whole chain.
func chainHash(skip int, pcs []uintptr) uint64 {
	h := uint64(skip)
	for _, pc := range pcs {
		h = (h ^ uint64(pc)) * 0x100000001b3
	}
	return h
}

// walkAgrees is the probe: it compares the frame-pointer walk with
// runtime.Callers once per process. Any mismatch sends every Table to
// the runtime.Callers path.
var walkAgrees = sync.OnceValue(probeOuter)

//go:noinline
func probeOuter() bool { return probeMiddle() }

//go:noinline
func probeMiddle() bool { return probeInner() }

// probeInner compares only the probe's own frames, the return PCs into
// probeMiddle and probeOuter. Below them runtime.Callers elides wrappers
// and expands inlined frames that the walk reports as one physical
// frame.
//
//go:noinline
func probeInner() bool {
	var walked [walkBound]uintptr
	n, ended := walkFrames(framePointer(), &walked)
	var logical [2]uintptr
	m := runtime.Callers(2, logical[:])
	return ended && n >= 2 && m == 2 && walked[0] == logical[0] && walked[1] == logical[1]
}

// capture is Capture's runtime.Callers path, with skip relative to
// capture's caller.
func (t *Table) capture(skip int) ID {
	// buf stays on the stack: neither trim nor Intern keeps it.
	var buf [maxDepth]uintptr
	n := runtime.Callers(skip+2, buf[:])
	trimmed := trim(buf[:n], t.inApplication)
	if len(trimmed) == 0 {
		return NoID
	}
	return t.Intern(trimmed)
}

// Intern stores the PC slice (copying it) and returns its stable ID. Two
// equal slices always intern to the same ID.
func (t *Table) Intern(pcs []uintptr) ID {
	// The map is keyed by the PCs' bytes; a lookup converts them to a
	// string without copying.
	key := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(pcs))), len(pcs)*int(unsafe.Sizeof(uintptr(0))))
	t.mu.RLock()
	id, ok := t.ids[string(key)]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[string(key)]; ok {
		return id
	}
	t.stacks = append(t.stacks, slices.Clone(pcs))
	id = ID(len(t.stacks))
	t.ids[string(key)] = id
	return id
}

// Captures returns the number of Capture calls so far, memo hits
// included.
func (t *Table) Captures() uint64 { return t.captures.Load() }

// Len returns the number of interned stacks.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.stacks)
}

// PCs returns the program counters of the identified stack, or nil for
// NoID or an unknown ID. The returned slice must not be modified.
func (t *Table) PCs(id ID) []uintptr {
	if id <= NoID {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) > len(t.stacks) {
		return nil
	}
	return t.stacks[id-1]
}

// Symbolise turns call-site PCs into frames, innermost first, one per
// logical call as runtime.CallersFrames expands inlined calls. Interned
// stacks, panic traces and the failure point tree's labels all print
// through it.
func Symbolise(pcs []uintptr) []Frame {
	if len(pcs) == 0 {
		return nil
	}
	frames := make([]Frame, 0, len(pcs))
	it := runtime.CallersFrames(pcs)
	for {
		fr, more := it.Next()
		frames = append(frames, Frame{PC: fr.PC, Function: fr.Function, File: trimFile(fr.File), Line: fr.Line})
		if !more {
			return frames
		}
	}
}

// Frames symbolises the identified stack, outermost frame last (the same
// order runtime produces).
func (t *Table) Frames(id ID) []Frame { return Symbolise(t.PCs(id)) }

// Format renders the identified stack as an indented multi-line trace,
// innermost frame first, suitable for bug reports.
func (t *Table) Format(id ID) string { return format(t.Frames(id)) }

func format(frames []Frame) string {
	if len(frames) == 0 {
		return "  <no stack>"
	}
	var sb strings.Builder
	for i, f := range frames {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "  %s", f)
	}
	return sb.String()
}

// PanicTrace renders the application's frames of a panicking goroutine's
// stack, called from the deferred function that recovered the panic, in
// the Format layout. The frames are the ones a capture at the panic
// would keep: the panic machinery above the application and the harness
// below it drop out. Unlike runtime/debug.Stack the trace carries no
// goroutine ID, argument words or line numbers of Mumak itself, so the
// same panic renders identically on every run and every build.
func PanicTrace() string {
	var buf [maxDepth]uintptr
	// Skip runtime.Callers, PanicTrace and the recovering function.
	return format(Symbolise(trim(buf[:runtime.Callers(3, buf[:])], inApplication)))
}
