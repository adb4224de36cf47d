package pmem_test

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"mumak/internal/pmem"
	"mumak/internal/trace"
)

// Strict durability — which stores a power cut keeps — is modelled by
// trace.Cursor over the events an engine emits, not by the engine. The
// tests here record an engine's events and read the durable state from
// the cursor's certain image; the engine itself answers only for loads,
// dirty lines and the prefix image.

// strictRun is an engine with a trace recorder attached.
type strictRun struct {
	*pmem.Engine
	rec *trace.Recorder
}

func newStrictRun(size int) strictRun {
	e := pmem.NewEngine(pmem.Options{PoolSize: size})
	rec := trace.NewRecorder()
	e.AttachHook(rec)
	return strictRun{e, rec}
}

// durable returns the strictly durable pool contents after everything
// the engine has executed: the certain image of a cursor that replays
// the whole recorded trace over the zeroed pool it started from.
func (r strictRun) durable() []byte {
	c := trace.NewCursor(&r.rec.T)
	c.SeekTo(r.rec.T.Len())
	return c.Certain().Bytes()
}

// durable64 returns the durable 8-byte word at addr.
func (r strictRun) durable64(addr uint64) uint64 { return le64(r.durable()[addr:]) }

func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func TestStoreIsVolatileUntilFlushed(t *testing.T) {
	r := newStrictRun(4096)
	r.Store64(128, 0xdeadbeef)
	if got := r.durable64(128); got != 0 {
		t.Fatalf("store durable without a flush: %#x", got)
	}
	if !r.LineDirty(128) {
		t.Fatal("the store did not dirty its line")
	}
	if got := r.Load64(128); got != 0xdeadbeef {
		t.Fatalf("load does not observe cached store: %#x", got)
	}
}

func TestCLFlushPersistsSynchronously(t *testing.T) {
	r := newStrictRun(4096)
	r.Store64(128, 42)
	r.CLFlush(128)
	if got := r.durable64(128); got != 42 {
		t.Fatalf("clflush did not persist: %d", got)
	}
	if r.LineDirty(128) {
		t.Fatal("clflush left its line dirty")
	}
}

func TestCLWBRequiresFence(t *testing.T) {
	r := newStrictRun(4096)
	r.Store64(128, 42)
	r.CLWB(128)
	if got := r.durable64(128); got != 0 {
		t.Fatalf("clwb persisted before fence: %d", got)
	}
	r.SFence()
	if got := r.durable64(128); got != 42 {
		t.Fatalf("fence did not persist clwb: %d", got)
	}
}

const asyncFlushAddr = 136

// asyncFlushed stores to two lines, flushes the first with flush and
// fences, checking on the way what every asynchronous flush must do:
// its line turns clean while the other stays dirty, loads still read
// the stored bytes, and the write-back is durable once a fence has run
// and not before.
func asyncFlushed(t *testing.T, name string, flush func(*pmem.Engine, uint64)) strictRun {
	t.Helper()
	const addr = asyncFlushAddr
	r := newStrictRun(4096)
	r.Store64(addr, 42)
	r.Store64(addr+pmem.CacheLineSize, 43) // a second dirty line stays put
	flush(r.Engine, addr)
	if r.LineDirty(addr) {
		t.Fatalf("%s: the line is still dirty", name)
	}
	if !r.LineDirty(addr + pmem.CacheLineSize) {
		t.Fatalf("%s: the flush cleaned another line", name)
	}
	if got := r.durable64(addr); got != 0 {
		t.Fatalf("%s: the write-back persisted before a fence: %d", name, got)
	}
	if got := r.Load64(addr); got != 42 {
		t.Fatalf("%s: load after the flush reads %d", name, got)
	}
	r.SFence()
	if got := r.durable64(addr); got != 42 {
		t.Fatalf("%s: fence did not persist the write-back: %d", name, got)
	}
	if got := r.durable64(addr + pmem.CacheLineSize); got != 0 {
		t.Fatalf("%s: the fence persisted an unflushed line: %d", name, got)
	}
	return r
}

func TestCLFlushOptInvalidatesLine(t *testing.T) {
	asyncFlushed(t, "clflushopt", (*pmem.Engine).CLFlushOpt)
}

// TestCLWBKeepsLineCached: the copy CLWB keeps is the view's line, which
// still holds the stored bytes, and it is clean, so the engine holds it
// only in the view and not among its dirty lines.
func TestCLWBKeepsLineCached(t *testing.T) {
	r := asyncFlushed(t, "clwb", (*pmem.Engine).CLWB)
	if got := le64(r.PrefixImage().Bytes()[asyncFlushAddr:]); got != 42 {
		t.Fatalf("clwb dropped the cached bytes: the view holds %d", got)
	}
}

// TestAsyncFlushesShareOneMutation: CLWB keeps a clean copy of the line
// and CLFlushOpt invalidates it, but a clean line behaves exactly like
// an uncached one, so the two engines end in the same state.
func TestAsyncFlushesShareOneMutation(t *testing.T) {
	a, b := asyncFlushed(t, "clwb", (*pmem.Engine).CLWB), asyncFlushed(t, "clflushopt", (*pmem.Engine).CLFlushOpt)
	if !maps.Equal(pmem.DirtyLines(a.Engine), pmem.DirtyLines(b.Engine)) ||
		!bytes.Equal(a.PrefixImage().Bytes(), b.PrefixImage().Bytes()) || a.PrefixImageHash() != b.PrefixImageHash() {
		t.Fatal("CLWB and CLFlushOpt leave the engines in different states")
	}
}

func TestNTStoreRequiresFence(t *testing.T) {
	r := newStrictRun(4096)
	r.NTStore64(256, 7)
	if r.LineDirty(256) {
		t.Fatal("an NT store dirtied its line")
	}
	if got := r.durable64(256); got != 0 {
		t.Fatalf("ntstore persisted before fence: %d", got)
	}
	r.SFence()
	if got := r.durable64(256); got != 7 {
		t.Fatalf("ntstore not durable after fence: %d", got)
	}
}

func TestNTStoreCoherentWithCache(t *testing.T) {
	r := newStrictRun(4096)
	r.Store64(256, 1) // line now cached and dirty
	r.NTStore64(264, 2)
	if got := r.Load64(264); got != 2 {
		t.Fatalf("load after ntstore on cached line: %d", got)
	}
	r.CLWB(256)
	r.SFence()
	img := r.durable()
	if le64(img[256:]) != 1 || le64(img[264:]) != 2 {
		t.Fatalf("mixed store/ntstore line persisted wrong: %d %d", le64(img[256:]), le64(img[264:]))
	}
}

func TestRMWHasFenceSemantics(t *testing.T) {
	r := newStrictRun(4096)
	r.Store64(128, 42)
	r.CLWB(128)
	if !r.CAS64(512, 0, 9) {
		t.Fatal("CAS failed")
	}
	if got := r.durable64(128); got != 42 {
		t.Fatalf("RMW did not drain pending flushes: %d", got)
	}
	// The CAS'd value itself is cached, not durable.
	if got := r.durable64(512); got != 0 {
		t.Fatalf("RMW store durable without flush: %d", got)
	}
	if !r.LineDirty(512) {
		t.Fatal("the RMW store did not dirty its line")
	}
	if got := r.Load64(512); got != 9 {
		t.Fatalf("CAS value not visible: %d", got)
	}
}

func TestPrefixImageAppliesEverything(t *testing.T) {
	r := newStrictRun(4096)
	r.Store64(0, 1)   // dirty, never flushed
	r.Store64(128, 2) // flushed but not fenced
	r.CLWB(128)
	r.NTStore64(256, 3) // unfenced ntstore
	r.Store64(512, 4)
	r.CLFlush(512) // fully durable
	img := r.PrefixImage()
	for i, want := range map[int]uint64{0: 1, 128: 2, 256: 3, 512: 4} {
		if got := le64(img.Bytes()[i:]); got != want {
			t.Errorf("prefix image at %d = %d, want %d", i, got, want)
		}
	}
	// The strictly durable image holds only the clflushed value.
	strict := r.durable()
	if le64(strict[0:]) != 0 || le64(strict[128:]) != 0 || le64(strict[256:]) != 0 {
		t.Error("strict image exposes unfenced data")
	}
	if le64(strict[512:]) != 4 {
		t.Error("strict image misses clflushed data")
	}
}

// Property: after any sequence of aligned 8-byte stores each followed by
// CLWB+SFENCE, the durable image equals the coherent view exactly.
func TestPropertyFlushedStoresAreDurable(t *testing.T) {
	f := func(words []uint64) bool {
		r := newStrictRun(1 << 14)
		n := uint64(r.Size() / 8)
		for i, w := range words {
			addr := (uint64(i) % n) * 8
			r.Store64(addr, w)
			r.CLWB(addr)
			r.SFence()
		}
		img := r.durable()
		for i := range words {
			addr := (uint64(i) % n) * 8
			if r.Load64(addr) != le64(img[addr:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the durable image never contains a value that was stored
// but neither flushed+fenced nor clflushed: the cache never evicts on
// its own.
func TestPropertyUnflushedStoresNeverDurable(t *testing.T) {
	f := func(slots []uint16) bool {
		r := newStrictRun(1 << 14)
		n := uint64(r.Size() / 8)
		seen := map[uint64]bool{}
		for _, s := range slots {
			addr := (uint64(s) % n) * 8
			r.Store64(addr, 0xfeedface)
			seen[addr] = true
		}
		img := r.durable()
		for addr := range seen {
			if le64(img[addr:]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: after every instruction of a random stream — every store and
// flush flavour, both fences, succeeding and failing CASes and FAA — the
// cursor's certain image of the recorded trace is exactly the durable
// medium of the naive reference model (model_test.go) driven by the same
// instructions. A failed CAS's event carries the value it leaves, so the
// cursor never certifies a write that did not happen.
// Certainty is conservative: it never exposes data a power cut could
// lose. And it is complete: it holds everything that is durable.
func TestPropertyCertainConservative(t *testing.T) {
	const size = 1 << 12
	f := func(seed int64, n uint8) bool {
		r := newStrictRun(size)
		m := pmem.NewRefModel(size)
		c := trace.NewCursor(&r.rec.T)
		for i, op := range pmem.GenRefOps(rand.New(rand.NewSource(seed)), size, int(n)+3) {
			if err := pmem.Step(r.Engine, m, op); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			c.SeekTo(r.rec.T.Len())
			if !bytes.Equal(c.Certain().Bytes(), m.Durable()) {
				t.Logf("seed %d: the certain image diverges from the model after op %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
