// Package stack captures, interns and symbolises call stacks.
//
// It is the analogue of PIN_Backtrace in the original Mumak: stacks
// identify unique code paths leading to failure points, and the package
// filters out instrumentation frames so that reports show only the
// application's own calls (§5 of the paper).
package stack

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"strings"
	"sync"
)

// ID names an interned call stack within a Table.
type ID int32

// NoID is the ID of the absent stack.
const NoID ID = -1

// maxDepth bounds captured stacks; deeper frames are truncated. 64 frames
// comfortably covers the recursive data structures under test.
const maxDepth = 64

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

// boundarySuffixes mark the harness frames at which capture stops: frames
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
	// File and Line locate the call site in source.
	File string
	Line int
}

// String formats the frame like a debugger line.
func (f Frame) String() string {
	return fmt.Sprintf("%s at %s:%d", f.Function, f.File, f.Line)
}

// Table interns call stacks and assigns them stable IDs. It is safe for
// concurrent use.
type Table struct {
	mu     sync.RWMutex
	seed   maphash.Seed
	byHash map[uint64][]ID
	stacks [][]uintptr

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
	}
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
	if fn := runtime.FuncForPC(pc); fn != nil {
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

// pcBufPool recycles the capture PC buffers. The buffer escapes through
// trim/Intern, so a stack array would be heap-allocated on every
// Capture — on the stack-mode hot path, once per PM instruction.
// Intern copies before storing, so returning the buffer is safe.
var pcBufPool = sync.Pool{New: func() any { return new([maxDepth]uintptr) }}

// Capture records the calling goroutine's stack, trims instrumentation
// frames from the top and harness frames from the bottom, and returns the
// interned ID. skip has the meaning of runtime.Callers' skip relative to
// Capture's caller (0 includes the caller itself).
func (t *Table) Capture(skip int) ID {
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
		if pcsEqual(t.stacks[id], pcs) {
			t.mu.RUnlock()
			return id
		}
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.byHash[sum] {
		if pcsEqual(t.stacks[id], pcs) {
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

func pcsEqual(a, b []uintptr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

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
		frames = append(frames, Frame{PC: fr.PC, Function: fr.Function, File: fr.File, Line: fr.Line})
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
			f := Frame{PC: fr.PC, Function: fr.Function, File: fr.File, Line: fr.Line}
			lines = append(lines, "  "+f.String())
		}
		if !more {
			break
		}
	}
	return strings.Join(lines, "\n")
}
