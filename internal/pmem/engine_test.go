package pmem

import (
	"bytes"
	"maps"
	"runtime"
	"testing"
	"testing/quick"
)

func newTestEngine(size int) *Engine {
	return NewEngine(Options{PoolSize: size})
}

func TestStoreIsVolatileUntilFlushed(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(128, 0xdeadbeef)
	if got := e.MediumSnapshot().Bytes()[128]; got != 0 {
		t.Fatalf("store reached medium without flush: %#x", got)
	}
	if got := e.Load64(128); got != 0xdeadbeef {
		t.Fatalf("load does not observe cached store: %#x", got)
	}
}

func TestCLFlushPersistsSynchronously(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(128, 42)
	e.CLFlush(128)
	img := e.MediumSnapshot()
	if got := le64(img.Bytes()[128:]); got != 42 {
		t.Fatalf("clflush did not persist: %d", got)
	}
}

func TestCLWBRequiresFence(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(128, 42)
	e.CLWB(128)
	if got := le64(e.MediumSnapshot().Bytes()[128:]); got != 0 {
		t.Fatalf("clwb persisted before fence: %d", got)
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending count = %d, want 1", len(e.queue))
	}
	e.SFence()
	if got := le64(e.MediumSnapshot().Bytes()[128:]); got != 42 {
		t.Fatalf("fence did not drain clwb: %d", got)
	}
	if len(e.queue) != 0 {
		t.Fatalf("pending count after fence = %d", len(e.queue))
	}
}

const asyncFlushAddr, asyncFlushBase = 136, 128

// asyncFlushed stores to two lines, flushes the first with flush and
// fences, checking on the way what every asynchronous flush must do:
// the line leaves the dirty map, its dirty bytes are queued, loads
// still read them, and the fence persists them.
func asyncFlushed(t *testing.T, name string, flush func(*Engine, uint64)) *Engine {
	t.Helper()
	const addr, base = asyncFlushAddr, asyncFlushBase
	e := newTestEngine(4096)
	e.Store64(addr, 42)
	e.Store64(addr+CacheLineSize, 43) // a second dirty line stays put
	flush(e, addr)
	if _, ok := e.cache[base]; ok || e.LineDirty(addr) {
		t.Fatalf("%s: the line is still in the dirty map", name)
	}
	if !e.LineDirty(addr + CacheLineSize) {
		t.Fatalf("%s: the flush dropped another line", name)
	}
	if len(e.queue) != 1 || e.queue[0].base != base || e.queue[0].dirty != storeMask(addr-base, 8) ||
		le64(e.queue[0].data[addr-base:]) != 42 {
		t.Fatalf("%s: queue %+v, want one write-back of the stored word", name, e.queue)
	}
	if got := le64(e.MediumSnapshot().Bytes()[addr:]); got != 0 {
		t.Fatalf("%s: the write-back persisted before a fence: %d", name, got)
	}
	if got := e.Load64(addr); got != 42 {
		t.Fatalf("%s: load after the flush reads %d", name, got)
	}
	e.SFence()
	if got := le64(e.MediumSnapshot().Bytes()[addr:]); got != 42 {
		t.Fatalf("%s: fence did not persist the write-back: %d", name, got)
	}
	return e
}

func TestCLFlushOptInvalidatesLine(t *testing.T) {
	asyncFlushed(t, "clflushopt", (*Engine).CLFlushOpt)
}

// TestCLWBKeepsLineCached: the copy CLWB keeps is the view's line, which
// still holds the stored bytes, and it is clean, so the engine holds it
// only in the view and not in the dirty map.
func TestCLWBKeepsLineCached(t *testing.T) {
	e := asyncFlushed(t, "clwb", (*Engine).CLWB)
	if got := le64(e.view.line(asyncFlushBase)[asyncFlushAddr-asyncFlushBase:]); got != 42 {
		t.Fatalf("clwb dropped the cached bytes: the view holds %d", got)
	}
}

// TestAsyncFlushesShareOneMutation: CLWB keeps a clean copy of the line
// and CLFlushOpt invalidates it, but a clean line behaves exactly like
// an uncached one, so the two engines end in the same state.
func TestAsyncFlushesShareOneMutation(t *testing.T) {
	a, b := asyncFlushed(t, "clwb", (*Engine).CLWB), asyncFlushed(t, "clflushopt", (*Engine).CLFlushOpt)
	if !maps.Equal(a.cache, b.cache) || len(a.queue) != 0 || len(b.queue) != 0 ||
		!bytes.Equal(a.MediumSnapshot().Bytes(), b.MediumSnapshot().Bytes()) ||
		!bytes.Equal(a.PrefixImage().Bytes(), b.PrefixImage().Bytes()) || a.PrefixImageHash() != b.PrefixImageHash() {
		t.Fatal("CLWB and CLFlushOpt leave the engines in different states")
	}
}

func TestNTStoreRequiresFence(t *testing.T) {
	e := newTestEngine(4096)
	e.NTStore64(256, 7)
	if got := le64(e.MediumSnapshot().Bytes()[256:]); got != 0 {
		t.Fatalf("ntstore persisted before fence: %d", got)
	}
	e.SFence()
	if got := le64(e.MediumSnapshot().Bytes()[256:]); got != 7 {
		t.Fatalf("ntstore not durable after fence: %d", got)
	}
}

func TestNTStoreCoherentWithCache(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(256, 1) // line now cached and dirty
	e.NTStore64(264, 2)
	if got := e.Load64(264); got != 2 {
		t.Fatalf("load after ntstore on cached line: %d", got)
	}
	e.CLWB(256)
	e.SFence()
	img := e.MediumSnapshot()
	if le64(img.Bytes()[256:]) != 1 || le64(img.Bytes()[264:]) != 2 {
		t.Fatalf("mixed store/ntstore line persisted wrong: %d %d",
			le64(img.Bytes()[256:]), le64(img.Bytes()[264:]))
	}
}

func TestRMWHasFenceSemantics(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(128, 42)
	e.CLWB(128)
	if !e.CAS64(512, 0, 9) {
		t.Fatal("CAS failed")
	}
	if got := le64(e.MediumSnapshot().Bytes()[128:]); got != 42 {
		t.Fatalf("RMW did not drain pending flushes: %d", got)
	}
	// The CAS'd value itself is cached, not durable.
	if got := le64(e.MediumSnapshot().Bytes()[512:]); got != 0 {
		t.Fatalf("RMW store durable without flush: %d", got)
	}
	if got := e.Load64(512); got != 9 {
		t.Fatalf("CAS value not visible: %d", got)
	}
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

func TestPrefixImageAppliesEverything(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(0, 1)   // dirty, never flushed
	e.Store64(128, 2) // flushed but not fenced
	e.CLWB(128)
	e.NTStore64(256, 3) // unfenced ntstore
	e.Store64(512, 4)
	e.CLFlush(512) // fully durable
	img := e.PrefixImage()
	for i, want := range map[int]uint64{0: 1, 128: 2, 256: 3, 512: 4} {
		if got := le64(img.Bytes()[i:]); got != want {
			t.Errorf("prefix image at %d = %d, want %d", i, got, want)
		}
	}
	// Strict image should only have the clflushed value.
	strict := e.MediumSnapshot()
	if le64(strict.Bytes()[0:]) != 0 || le64(strict.Bytes()[128:]) != 0 || le64(strict.Bytes()[256:]) != 0 {
		t.Error("strict image exposes unfenced data")
	}
	if le64(strict.Bytes()[512:]) != 4 {
		t.Error("strict image misses clflushed data")
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
	// The CLWB never executed: nothing pending, store still dirty.
	if len(e.queue) != 0 {
		t.Fatal("crashed flush still enqueued")
	}
	if got := le64(e.MediumSnapshot().Bytes()[0:]); got != 0 {
		t.Fatalf("crashed flush persisted data: %d", got)
	}
}

type hookFunc func(*Event)

func (f hookFunc) OnEvent(ev *Event) { f(ev) }

// Property: after any sequence of aligned 8-byte stores each followed by
// CLWB+SFENCE, the medium equals the cache view exactly.
func TestPropertyFlushedStoresAreDurable(t *testing.T) {
	f := func(words []uint64) bool {
		e := newTestEngine(1 << 14)
		n := uint64(e.Size() / 8)
		for i, w := range words {
			addr := (uint64(i) % n) * 8
			e.Store64(addr, w)
			e.CLWB(addr)
			e.SFence()
		}
		img := e.MediumSnapshot()
		for i := range words {
			addr := (uint64(i) % n) * 8
			if e.Load64(addr) != le64(img.Bytes()[addr:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

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

// Property: the strictly durable medium never contains a value that was
// stored but neither flushed+fenced nor clflushed: the cache never
// evicts on its own.
func TestPropertyUnflushedStoresNeverDurable(t *testing.T) {
	f := func(slots []uint16) bool {
		e := newTestEngine(1 << 14)
		n := uint64(e.Size() / 8)
		seen := map[uint64]bool{}
		for _, s := range slots {
			addr := (uint64(s) % n) * 8
			e.Store64(addr, 0xfeedface)
			seen[addr] = true
		}
		img := e.MediumSnapshot()
		for addr := range seen {
			if le64(img.Bytes()[addr:]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewEngineFromImage(t *testing.T) {
	e := newTestEngine(4096)
	e.Store64(64, 11)
	e.CLFlush(64)
	img := e.MediumSnapshot()
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
