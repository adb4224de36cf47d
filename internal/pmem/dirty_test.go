package pmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// randomOps drives the engine through a pseudo-random instruction mix
// that exercises stores, NT stores, flushes, fences and RMWs.
func randomOps(e *Engine, rng *rand.Rand, n int) {
	size := uint64(e.Size())
	for i := 0; i < n; i++ {
		addr := (rng.Uint64() % (size - 16)) &^ 7
		switch rng.Intn(10) {
		case 0, 1, 2:
			e.Store64(addr, rng.Uint64())
		case 3:
			var buf [24]byte
			rng.Read(buf[:])
			e.Store(addr, buf[:])
		case 4:
			e.NTStore64(addr, rng.Uint64())
		case 5:
			e.CLWB(addr)
		case 6:
			e.CLFlushOpt(addr)
		case 7:
			e.CLFlush(addr)
		case 8:
			e.SFence()
		case 9:
			e.FAA64(addr, 3)
		}
	}
}

// The central dedup invariant: the incrementally maintained image hash
// always equals a from-scratch content hash of the materialised bytes,
// at arbitrary points of arbitrary instruction streams.
func TestIncrementalHashMatchesContentHash(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(Options{PoolSize: 1 << 16})
		for step := 0; step < 40; step++ {
			randomOps(e, rng, 25)
			img := e.PrefixImage()
			if got, want := img.Hash(), ContentHash(img.Bytes()); got != want {
				t.Fatalf("seed %d step %d: PrefixImage hash %#x, content hash %#x", seed, step, got, want)
			}
			if got, want := e.PrefixImageHash(), img.Hash(); got != want {
				t.Fatalf("seed %d step %d: PrefixImageHash %#x, image hash %#x", seed, step, got, want)
			}
		}
	}
}

// A snapshot must be immutable: once taken, later engine activity may
// not leak into it (the COW base is shared, so this guards the
// aliasing discipline).
func TestSnapshotImmutableAfterLaterWrites(t *testing.T) {
	e := NewEngine(Options{PoolSize: 1 << 14})
	e.Store64(128, 42)
	e.CLWB(128)
	e.SFence()
	img := e.PrefixImage()
	want := append([]byte(nil), img.Bytes()...)
	wantHash := img.Hash()

	rng := rand.New(rand.NewSource(11))
	randomOps(e, rng, 300)
	e.SFence()

	if !bytes.Equal(img.Bytes(), want) {
		t.Fatal("snapshot bytes changed after later engine writes")
	}
	if img.Hash() != wantHash {
		t.Fatal("snapshot hash changed after later engine writes")
	}
}

// Consecutive snapshots share pages: a second snapshot after a small
// change must observe the change while the first keeps the old
// contents.
func TestCOWSnapshotsObserveOnlyOwnState(t *testing.T) {
	e := NewEngine(Options{PoolSize: 1 << 14})
	e.Store64(0, 1)
	e.CLFlush(0)
	s1 := e.PrefixImage()
	e.Store64(0, 2)
	e.Store64(4096, 3)
	e.CLFlush(0)
	e.CLFlush(4096)
	s2 := e.PrefixImage()
	if got := le64(s1.Bytes()[0:]); got != 1 {
		t.Fatalf("first snapshot sees %d at 0, want 1", got)
	}
	if got := le64(s2.Bytes()[0:]); got != 2 {
		t.Fatalf("second snapshot sees %d at 0, want 2", got)
	}
	if got := le64(s2.Bytes()[4096:]); got != 3 {
		t.Fatalf("second snapshot sees %d at 4096, want 3", got)
	}
	if s1.Hash() == s2.Hash() {
		t.Fatal("distinct contents hash equal")
	}
}

// Engines restored from an image inherit its hash, so their own
// snapshots stay consistent without a pool rescan.
func TestEngineFromImageInheritsHash(t *testing.T) {
	e := NewEngine(Options{PoolSize: 1 << 14})
	rng := rand.New(rand.NewSource(3))
	randomOps(e, rng, 200)
	img := e.PrefixImage()

	e2 := NewEngineFromImage(Options{}, img)
	snap := e2.PrefixImage()
	if got, want := snap.Hash(), img.Hash(); got != want {
		t.Fatalf("restored engine snapshot hash %#x, want image hash %#x", got, want)
	}
	if !bytes.Equal(snap.Bytes(), img.Bytes()) {
		t.Fatal("restored engine snapshot differs from source image")
	}
	// The hash the engine starts from is the image's content hash.
	if got, want := img.Hash(), ContentHash(img.Bytes()); got != want {
		t.Fatalf("image hash %#x, content hash %#x", got, want)
	}
}

// Identical durable states reached through different instruction
// streams must collide on the same hash — the property the verdict
// cache keys on.
func TestIdenticalImagesHashEqual(t *testing.T) {
	build := func(flushFirst bool) *Engine {
		e := NewEngine(Options{PoolSize: 1 << 14})
		a, b := uint64(64), uint64(256)
		if flushFirst {
			e.Store64(a, 7)
			e.CLWB(a)
			e.SFence()
			e.Store64(b, 9)
		} else {
			e.Store64(b, 9)
			e.Store64(a, 7)
			// a left dirty in cache, b dirty too: prefix image equal.
		}
		return e
	}
	i1, i2 := build(true).PrefixImage(), build(false).PrefixImage()
	if !bytes.Equal(i1.Bytes(), i2.Bytes()) {
		t.Fatal("fixture images differ; test is vacuous")
	}
	if i1.Hash() != i2.Hash() {
		t.Fatalf("identical images hash %#x vs %#x", i1.Hash(), i2.Hash())
	}
}

// ContentHash must not ignore a trailing partial line: two unaligned
// buffers differing only past the last full line would otherwise hash
// identically, and the verdict cache would serve one's recovery verdict
// for the other. The tail is folded zero-padded, so padding a buffer
// out to the line size explicitly is hash-neutral.
func TestContentHashCoversPartialTail(t *testing.T) {
	data := make([]byte, 3*CacheLineSize+17)
	for i := range data {
		data[i] = byte(i * 31)
	}
	twin := append([]byte(nil), data...)
	twin[len(twin)-1] ^= 0xff // diverge only inside the partial tail
	if ContentHash(data) == ContentHash(twin) {
		t.Fatal("buffers differing only in the trailing partial line hash identically")
	}
	padded := append(append([]byte(nil), data...), make([]byte, CacheLineSize-17)...)
	if ContentHash(data) != ContentHash(padded) {
		t.Fatal("zero-padding the tail to a full line changed the hash")
	}
	if got := ContentHash(data[:3*CacheLineSize]); got == ContentHash(data) {
		t.Fatal("dropping a non-zero tail did not change the hash")
	}
}

// TestFrozenViewCostsOnlyWrittenChunks pins the two-level page table:
// once an engine's view is frozen, its next store copies the
// top-level table (one pointer per 2 MiB of pool), one chunk and one
// page, so freezing after every store allocates nearly the same at a
// 64 MiB pool as at 8 MiB. A one-level table would copy one pointer per
// 4 KiB page, 112 KiB more at the larger pool.
func TestFrozenViewCostsOnlyWrittenChunks(t *testing.T) {
	perStep := func(size int) uint64 {
		e := NewEngine(Options{PoolSize: size})
		imgs := make([]*Image, 0, 64)
		step := func(i int) {
			e.Store64(uint64(i%8)*(1<<20)+8, uint64(i))
			imgs = append(imgs, e.PrefixImage())
		}
		for i := 0; i < 16; i++ {
			step(i) // warm the cache lines and the line map
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 16; i < 48; i++ {
			step(i)
		}
		runtime.ReadMemStats(&after)
		if len(imgs) != 48 {
			t.Fatal("lost a frozen view")
		}
		return (after.TotalAlloc - before.TotalAlloc) / 32
	}
	small, large := perStep(8<<20), perStep(64<<20)
	if large > small+1<<10 {
		t.Fatalf("a store after a freeze allocates %d bytes at a 64 MiB pool and %d at 8 MiB; the difference must stay under 1 KiB",
			large, small)
	}
	if small > 16<<10 {
		t.Fatalf("a store after a freeze allocates %d bytes; want about one chunk and one page", small)
	}
	t.Logf("bytes allocated per store after a freeze: %d at 8 MiB, %d at 64 MiB", small, large)
}
