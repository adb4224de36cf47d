package stack_test

import . "mumak/internal/stack"

import (
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

//go:noinline
func captureLeaf(t *Table) ID { return t.Capture(0) }

//go:noinline
func captureViaHelper(t *Table) ID { return captureLeaf(t) }

func TestCaptureInternsIdenticalStacks(t *testing.T) {
	tbl := NewTable()
	var ids []ID
	for i := 0; i < 3; i++ {
		// Same call site each iteration: one unique code path.
		ids = append(ids, captureViaHelper(tbl))
	}
	for _, id := range ids {
		if id == NoID {
			t.Fatal("capture returned NoID")
		}
		if id != ids[0] {
			t.Fatalf("identical call paths interned differently: %v", ids)
		}
	}
}

func TestCaptureDistinguishesCallPaths(t *testing.T) {
	tbl := NewTable()
	a := captureLeaf(tbl)
	b := captureViaHelper(tbl)
	if a == b {
		t.Fatal("different call paths interned identically")
	}
}

func TestFramesSymbolise(t *testing.T) {
	tbl := NewTable()
	id := captureViaHelper(tbl)
	frames := tbl.Frames(id)
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want >= 2", len(frames))
	}
	if !strings.Contains(frames[0].Function, "captureLeaf") {
		t.Errorf("innermost frame = %q, want captureLeaf", frames[0].Function)
	}
	if !strings.Contains(frames[1].Function, "captureViaHelper") {
		t.Errorf("second frame = %q, want captureViaHelper", frames[1].Function)
	}
}

func TestTrimDropsBoundaryFrames(t *testing.T) {
	tbl := NewTable()
	id := captureViaHelper(tbl)
	for _, f := range tbl.Frames(id) {
		if strings.HasPrefix(f.Function, "testing.") || strings.HasPrefix(f.Function, "runtime.") {
			t.Errorf("harness frame leaked into stack: %s", f.Function)
		}
	}
}

func TestFormatContainsFileAndLine(t *testing.T) {
	tbl := NewTable()
	id := captureLeaf(tbl)
	s := tbl.Format(id)
	if !strings.Contains(s, "stack_test.go:") {
		t.Errorf("formatted stack lacks source location:\n%s", s)
	}
}

//go:noinline
func panicker() { panic("seeded") }

// panicTrace recovers panicker's panic and renders its trace.
func panicTrace() (trace string) {
	defer func() {
		recover()
		trace = PanicTrace()
	}()
	panicker()
	return ""
}

// captureInSort captures from a sort.Slice comparison, so the standard
// library's sort code lies inside the captured application path.
//
//go:noinline
func captureInSort(t *Table) (id ID) {
	s := []int{2, 1}
	sort.Slice(s, func(i, j int) bool {
		id = t.Capture(0)
		return s[i] < s[j]
	})
	return id
}

// TestFramesPrintBuildIndependentPaths: frames print the paths a
// -trimpath build prints, whatever directory the code was built in. A
// frame of this module reads mumak/internal/..., never the checkout
// directory, and a standard-library frame inside an application path
// reads its GOROOT-relative path (sort/...). A panic trace keeps the
// same frames a capture keeps: none of the runtime's, above the
// application or below it.
func TestFramesPrintBuildIndependentPaths(t *testing.T) {
	_, self, _, _ := runtime.Caller(0)
	checkout := strings.TrimSuffix(filepath.ToSlash(self), "internal/stack/stack_test.go")
	inCheckout := func(file string) bool { return checkout != "mumak/" && strings.Contains(file, checkout) }

	tbl := NewTable()
	frames := tbl.Frames(captureInSort(tbl))
	if f := frames[0]; f.File != "mumak/internal/stack/stack_test.go" {
		t.Fatalf("captured frame in %q, want mumak/internal/stack/stack_test.go (built in %q)", f.File, checkout)
	}
	sortFrames := 0
	for _, f := range frames {
		if inCheckout(f.File) {
			t.Fatalf("frame %s names the checkout directory: %s", f.Function, f.File)
		}
		if strings.HasPrefix(f.Function, "sort.") {
			sortFrames++
			if !strings.HasPrefix(f.File, "sort/") {
				t.Fatalf("standard-library frame %s in %s, want sort/...", f.Function, f.File)
			}
		}
	}
	if sortFrames == 0 {
		t.Fatalf("the capture through sort.Slice kept no sort frame: %v", frames)
	}

	trace := panicTrace()
	if !strings.HasPrefix(trace, "  mumak/internal/stack_test.panicker at mumak/internal/stack/stack_test.go:") {
		t.Fatalf("panic trace does not start at panicker in this module:\n%s", trace)
	}
	for _, line := range strings.Split(trace, "\n") {
		fn, file, ok := strings.Cut(strings.TrimSpace(line), " at ")
		if !ok {
			t.Fatalf("malformed trace line %q", line)
		}
		if inCheckout(file) {
			t.Fatalf("frame %s names the checkout directory: %s", fn, file)
		}
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "testing.") {
			t.Fatalf("panic trace keeps %s, a frame outside the application:\n%s", fn, trace)
		}
	}
}

func TestNoIDHandling(t *testing.T) {
	tbl := NewTable()
	if pcs := tbl.PCs(NoID); pcs != nil {
		t.Error("PCs(NoID) != nil")
	}
	if frames := tbl.Frames(NoID); frames != nil {
		t.Error("Frames(NoID) != nil")
	}
	if s := tbl.Format(NoID); !strings.Contains(s, "no stack") {
		t.Errorf("Format(NoID) = %q", s)
	}
}

// TestZeroIDIsNoStack: the zero ID is the absent stack, so a value whose
// stack is never set carries none, and interning never hands it out.
func TestZeroIDIsNoStack(t *testing.T) {
	var unset ID
	if unset != NoID {
		t.Fatalf("the zero ID is %d, NoID is %d", unset, NoID)
	}
	tbl := NewTable()
	id := tbl.Intern([]uintptr{1, 2, 3})
	if id == unset {
		t.Fatal("the first interned stack got the zero ID")
	}
	if pcs := tbl.PCs(unset); pcs != nil {
		t.Errorf("PCs of the zero ID = %v, want none", pcs)
	}
	if frames := tbl.Frames(unset); frames != nil {
		t.Errorf("Frames of the zero ID = %v, want none", frames)
	}
	if pcs := tbl.PCs(id); len(pcs) != 3 || pcs[0] != 1 || pcs[2] != 3 {
		t.Errorf("PCs(%d) = %v, want [1 2 3]", id, pcs)
	}
}

func TestPropertyInternRoundTrip(t *testing.T) {
	tbl := NewTable()
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		pcs := make([]uintptr, len(raw))
		for i, r := range raw {
			pcs[i] = uintptr(r) + 1
		}
		id := tbl.Intern(pcs)
		got := tbl.PCs(id)
		if len(got) != len(pcs) {
			return false
		}
		for i := range pcs {
			if got[i] != pcs[i] {
				return false
			}
		}
		// Interning again yields the same ID.
		return tbl.Intern(pcs) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDistinctSlicesDistinctIDs(t *testing.T) {
	tbl := NewTable()
	f := func(a, b []uint16) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		pa := make([]uintptr, len(a))
		for i, r := range a {
			pa[i] = uintptr(r) + 1
		}
		pb := make([]uintptr, len(b))
		for i, r := range b {
			pb[i] = uintptr(r) + 1
		}
		same := slicesEqual(pa, pb)
		return (tbl.Intern(pa) == tbl.Intern(pb)) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentIntern(t *testing.T) {
	tbl := NewTable()
	done := make(chan ID, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- tbl.Intern([]uintptr{1, 2, 3}) }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if id := <-done; id != first {
			t.Fatalf("concurrent interning of same stack diverged: %d vs %d", id, first)
		}
	}
}

func slicesEqual(a, b []uintptr) bool {
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

func TestTableConcurrentUse(t *testing.T) {
	// The table is shared by all engines of a parallel fault-injection
	// campaign; under -race this exercises every accessor concurrently.
	tbl := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tbl.Intern([]uintptr{uintptr(g%4 + 1), uintptr(i%17 + 1), 7})
				if pcs := tbl.PCs(id); len(pcs) != 3 {
					t.Errorf("interned stack resolved to %d PCs", len(pcs))
					return
				}
				if cid := captureViaHelper(tbl); cid != NoID {
					_ = tbl.Frames(cid)
					_ = tbl.Format(cid)
				}
				_ = tbl.Len()
				_ = tbl.Captures()
			}
		}()
	}
	wg.Wait()
	// Phase 1, stack-mode replays and phase 3 share one table, so the
	// capture count must not lose concurrent increments.
	if n := tbl.Captures(); n != 8*200 {
		t.Fatalf("%d captures counted, want %d", n, 8*200)
	}
}

// Steady-state Capture of an already-interned stack must not allocate,
// on either path: a memo hit only reads, and the runtime.Callers path
// keeps its PC buffer on the stack and Intern's fast path only reads.
func TestCaptureSteadyStateDoesNotAllocate(t *testing.T) {
	for _, tbl := range []*Table{NewTable(), slowTable()} {
		var allocs float64
		var memo int
		// The first pass interns the stack and memoises the chains of
		// AllocsPerRun's two call sites; the second is all memo hits.
		for pass := 0; pass < 2; pass++ {
			memo = tbl.Memoised()
			allocs = testing.AllocsPerRun(100, func() {
				if captureViaHelper(tbl) == NoID {
					t.Fatal("capture returned NoID")
				}
			})
		}
		if allocs != 0 {
			t.Errorf("walk=%v: steady-state Capture allocates %.1f objects per call, want 0", tbl.Walks(), allocs)
		}
		if tbl.Len() != 1 || tbl.Memoised() != memo || tbl.Walks() != (memo > 0) {
			t.Errorf("walk=%v: %d stack(s) interned, %d chain(s) memoised after the first pass and %d after the second",
				tbl.Walks(), tbl.Len(), memo, tbl.Memoised())
		}
	}
}
