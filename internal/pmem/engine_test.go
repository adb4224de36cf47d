package pmem

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
)

func newTestEngine(size int) *Engine {
	return NewEngine(Options{PoolSize: size})
}

func TestCASComparison(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(512, 5)
	if e.CAS64(512, 4, 9) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if got := e.Load64(512); got != 5 {
		t.Fatalf("failed CAS modified memory: %d", got)
	}
	if prev := e.FAA64(512, 3); prev != 5 {
		t.Fatalf("FAA returned %d, want 5", prev)
	}
	if got := e.Load64(512); got != 8 {
		t.Fatalf("FAA result: %d", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	e := newTestEngine(128)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds store did not panic")
		}
	}()
	e.Store64(uint64(e.Size()), 1)
}

func TestICountMonotonic(t *testing.T) {
	e := newTestEngine(4096)
	before := e.ICount()
	e.Store64(0, 1)
	e.CLWB(0)
	e.SFence()
	e.Load64(0)
	if e.ICount() != before+4 {
		t.Fatalf("icount advanced by %d, want 4", e.ICount()-before)
	}
}

// recorder collects events for hook-order assertions.
type recorder struct{ ops []Opcode }

func (r *recorder) OnEvent(ev *Event) { r.ops = append(r.ops, ev.Op) }

func TestHookSeesEventsInOrder(t *testing.T) {
	e := newTestEngine(4096)
	r := &recorder{}
	e.AttachHook(r)
	e.Store64(0, 1)
	e.CLWB(0)
	e.SFence()
	e.Load64(0)
	want := []Opcode{OpStore, OpCLWB, OpSFence, OpLoad}
	if len(r.ops) != len(want) {
		t.Fatalf("got %d events, want %d", len(r.ops), len(want))
	}
	for i := range want {
		if r.ops[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, r.ops[i], want[i])
		}
	}
}

func TestHookCrashLeavesEventUnapplied(t *testing.T) {
	e := newTestEngine(4096)
	crashAt := uint64(2) // the CLWB below
	e.AttachHook(hookFunc(func(ev *Event) {
		if ev.ICount == crashAt {
			panic(&CrashSignal{ICount: ev.ICount, Reason: "test"})
		}
	}))
	func() {
		defer func() {
			if _, ok := recover().(*CrashSignal); !ok {
				t.Fatal("expected CrashSignal")
			}
		}()
		e.Store64(0, 7)
		e.CLWB(0)
		t.Fatal("unreachable")
	}()
	// The CLWB never executed: the store's line is still dirty.
	if !e.LineDirty(0) {
		t.Fatal("the crashed flush cleaned its line")
	}
}

type hookFunc func(*Event)

func (f hookFunc) OnEvent(ev *Event) { f(ev) }

// Property: the prefix image always equals the volatile view — every
// store in program order is applied.
func TestPropertyPrefixImageEqualsVolatileView(t *testing.T) {
	f := func(ops []uint16, vals []uint64) bool {
		e := newTestEngine(1 << 14)
		n := uint64(e.Size() / 8)
		for i, op := range ops {
			addr := (uint64(op) % n) * 8
			v := uint64(i)
			if i < len(vals) {
				v = vals[i]
			}
			switch op % 4 {
			case 0:
				e.Store64(addr, v)
			case 1:
				e.NTStore64(addr, v)
			case 2:
				e.Store64(addr, v)
				e.CLWB(addr)
			case 3:
				e.Store64(addr, v)
				e.CLFlush(addr)
				e.SFence()
			}
		}
		img := e.PrefixImage()
		view := make([]byte, e.Size())
		e.readInto(view, 0)
		return bytes.Equal(img.Bytes(), view)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewEngineFromImage(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(64, 11)
	e.CLFlush(64)
	img := e.PrefixImage()
	e2 := NewEngineFromImage(Options{}, img)
	if got := e2.Load64(64); got != 11 {
		t.Fatalf("restored engine reads %d, want 11", got)
	}
	if e2.Size() != e.Size() {
		t.Fatalf("restored size %d != %d", e2.Size(), e.Size())
	}
	// Restored engine is independent of the image.
	e2.Store64(64, 12)
	e2.CLFlush(64)
	if got := le64(img.Bytes()[64:]); got != 11 {
		t.Fatalf("engine mutated source image: %d", got)
	}
}

// TestEngineFromImageAllocatesOnlyItsState: a recovery engine over a
// leaf image shares the image's pages and hash, so building one costs
// the engine itself and its empty dirty map, whatever the pool size.
func TestEngineFromImageAllocatesOnlyItsState(t *testing.T) {
	src := NewEngine(Options{PoolSize: 64 << 20})
	src.Store64(64, 1)
	img := src.PrefixImage()
	const runs = 64
	engines := make([]*Engine, runs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range engines {
		engines[i] = NewEngineFromImage(Options{}, img)
	}
	runtime.ReadMemStats(&after)
	if got := engines[runs-1].Load64(64); got != 1 {
		t.Fatalf("engine reads %d from its image", got)
	}
	perEngine := (after.TotalAlloc - before.TotalAlloc) / runs
	if perEngine >= 1<<10 {
		t.Fatalf("NewEngineFromImage allocates %d bytes over a 64 MiB leaf image; want under 1 KiB", perEngine)
	}
	t.Logf("bytes allocated per engine: %d", perEngine)
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
