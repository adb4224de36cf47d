// Package stack captures, interns and symbolises call stacks.
//
// It is the analogue of PIN_Backtrace in the original Mumak: stacks
// identify unique code paths leading to failure points, and the package
// filters out instrumentation frames so that reports show only the
// application's own calls (§5 of the paper).
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
	"hash/maphash"
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

// NoID is the ID of the absent stack.
const NoID ID = -1

// maxDepth bounds captured stacks; deeper frames are truncated. 64 frames
// comfortably covers the recursive data structures under test.
const maxDepth = 64

// walkBound bounds the frame-pointer walk. A chain that has not ended
// within it is not memoised: its first maxDepth logical frames could
// depend on frames the walk never saw.
const walkBound = 256

// instrumentationPrefixes are function-name prefixes dropped from the top
// of captured stacks, mirroring Pin's filtering of instrumentation
// routines. Frames below the first application frame are kept verbatim.
var instrumentationPrefixes = []string{
	"mumak/internal/pmem.",
	"mumak/internal/stack.",
	"mumak/internal/trace.",
	"mumak/internal/fpt.",
	"mumak/internal/core.",
	"mumak/internal/tools",
	"mumak/internal/oracle.",
}

// boundaryPrefixes mark the harness frames at which capture stops: frames
// at or below these functions belong to the runner, not the application.
var boundaryPrefixes = []string{
	"runtime.",
	"testing.",
	"mumak/internal/harness.",
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
	mu     sync.RWMutex
	seed   maphash.Seed
	byHash map[uint64][]ID
	stacks [][]uintptr
	// captures counts Capture calls.
	captures atomic.Uint64

	// walk is the probe's verdict: whether Capture may use the
	// frame-pointer walk and the chains memo.
	walk bool
	// chains maps chainHash(skip, physical return PCs) to the memoised
	// *chain. A hit takes no lock and allocates nothing.
	chains sync.Map

	classMu sync.RWMutex
	// pcClass caches, per call-site PC, whether the frame belongs to the
	// instrumentation layer (1), the harness boundary (2) or the
	// application (0).
	pcClass map[uintptr]uint8
}

// NewTable returns an empty stack table.
func NewTable() *Table {
	return &Table{
		seed:    maphash.MakeSeed(),
		byHash:  make(map[uint64][]ID),
		pcClass: make(map[uintptr]uint8),
		walk:    walkAgrees(),
	}
}

// chain is one memoised frame-pointer chain and the ID that
// runtime.Callers, trim and Intern gave it.
type chain struct {
	skip int
	pcs  []uintptr
	id   ID
}

const (
	classApp = iota
	classInstrumentation
	classBoundary
)

func (t *Table) classify(pc uintptr) uint8 {
	t.classMu.RLock()
	c, ok := t.pcClass[pc]
	t.classMu.RUnlock()
	if ok {
		return c
	}
	c = classApp
	// pc is a return PC; the call's own inline context is at pc-1, where
	// runtime.CallersFrames symbolises it. At pc itself an inlined
	// instrumentation call can already belong to the application frame
	// it was inlined into.
	if fn := runtime.FuncForPC(pc - 1); fn != nil {
		name := fn.Name()
		for _, p := range instrumentationPrefixes {
			if strings.HasPrefix(name, p) {
				c = classInstrumentation
				break
			}
		}
		if c == classApp {
			for _, p := range boundaryPrefixes {
				if strings.HasPrefix(name, p) {
					c = classBoundary
					break
				}
			}
		}
	}
	t.classMu.Lock()
	t.pcClass[pc] = c
	t.classMu.Unlock()
	return c
}

// pcBufPool recycles the runtime.Callers buffers. The buffer escapes
// through trim/Intern, so a stack array would be heap-allocated on every
// slow-path capture: once per new call chain, and on every Capture where
// the frame-pointer walk is unavailable. Intern copies before storing,
// so returning the buffer is safe.
var pcBufPool = sync.Pool{New: func() any { return new([maxDepth]uintptr) }}

// Capture records the calling goroutine's stack, trims instrumentation
// frames from the top and harness frames from the bottom, and returns the
// interned ID. skip has the meaning of runtime.Callers' skip relative to
// Capture's caller (0 includes the caller itself).
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
	buf := pcBufPool.Get().(*[maxDepth]uintptr)
	n := runtime.Callers(skip+2, buf[:])
	if n == 0 {
		pcBufPool.Put(buf)
		return NoID
	}
	trimmed := t.trim(buf[:n])
	if len(trimmed) == 0 {
		pcBufPool.Put(buf)
		return NoID
	}
	id := t.Intern(trimmed)
	pcBufPool.Put(buf)
	return id
}

// trim removes leading instrumentation frames and trailing harness
// frames.
func (t *Table) trim(pcs []uintptr) []uintptr {
	start := 0
	for start < len(pcs) && t.classify(pcs[start]) == classInstrumentation {
		start++
	}
	end := start
	for end < len(pcs) && t.classify(pcs[end]) != classBoundary {
		end++
	}
	return pcs[start:end]
}

// Intern stores the PC slice (copying it) and returns its stable ID. Two
// equal slices always intern to the same ID.
func (t *Table) Intern(pcs []uintptr) ID {
	var h maphash.Hash
	h.SetSeed(t.seed)
	for _, pc := range pcs {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(pc >> (8 * i))
		}
		h.Write(b[:])
	}
	sum := h.Sum64()

	t.mu.RLock()
	for _, id := range t.byHash[sum] {
		if slices.Equal(t.stacks[id], pcs) {
			t.mu.RUnlock()
			return id
		}
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.byHash[sum] {
		if slices.Equal(t.stacks[id], pcs) {
			return id
		}
	}
	id := ID(len(t.stacks))
	cp := make([]uintptr, len(pcs))
	copy(cp, pcs)
	t.stacks = append(t.stacks, cp)
	t.byHash[sum] = append(t.byHash[sum], id)
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
	if id == NoID {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.stacks) {
		return nil
	}
	return t.stacks[id]
}

// Frames symbolises the identified stack, outermost frame last (the same
// order runtime produces).
func (t *Table) Frames(id ID) []Frame {
	pcs := t.PCs(id)
	if len(pcs) == 0 {
		return nil
	}
	frames := make([]Frame, 0, len(pcs))
	it := runtime.CallersFrames(pcs)
	for {
		fr, more := it.Next()
		frames = append(frames, Frame{PC: fr.PC, Function: fr.Function, File: trimFile(fr.File), Line: fr.Line})
		if !more {
			break
		}
	}
	return frames
}

// Format renders the identified stack as an indented multi-line trace,
// innermost frame first, suitable for bug reports.
func (t *Table) Format(id ID) string {
	frames := t.Frames(id)
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

// PanicTrace renders the stack of a panicking goroutine, called from
// the deferred function that recovered the panic, in the Format layout:
// one Frame per line, innermost first, starting at the frame that
// panicked (the runtime's panic machinery is skipped). Unlike
// runtime/debug.Stack it carries no goroutine ID and no argument words,
// so the same panic renders identically on every run.
func PanicTrace() string {
	pcs := make([]uintptr, maxDepth)
	// Skip runtime.Callers, PanicTrace and the recovering function.
	pcs = pcs[:runtime.Callers(3, pcs)]
	var lines []string
	it := runtime.CallersFrames(pcs)
	for {
		fr, more := it.Next()
		if len(lines) > 0 || !strings.HasPrefix(fr.Function, "runtime.") {
			f := Frame{PC: fr.PC, Function: fr.Function, File: trimFile(fr.File), Line: fr.Line}
			lines = append(lines, "  "+f.String())
		}
		if !more {
			break
		}
	}
	return strings.Join(lines, "\n")
}
