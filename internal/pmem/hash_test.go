package pmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
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

// The central dedup invariant: the hash PrefixImageHash folds on demand
// always equals a from-scratch content hash of the materialised bytes,
// whatever interleaving of instructions, freezes, folds and restarts led
// there. Each step runs one to four of: a batch of stores, NT stores,
// flushes, fences and RMWs; a freeze (PrefixImage) without a fold; a
// fold (PrefixImageHash); a restart from the engine's image, taken with
// or without a fold just before. After each step the image PrefixImage
// freezes must hash, as img.Hash and as PrefixImageHash, to the content
// hash of its bytes.
func TestIncrementalHashMatchesContentHash(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(Options{PoolSize: 1 << 16})
		for step := 0; step < 80; step++ {
			for k := rng.Intn(4); k >= 0; k-- {
				switch rng.Intn(6) {
				case 0, 1:
					randomOps(e, rng, 1+rng.Intn(25))
				case 2:
					e.PrefixImage()
				case 3:
					e.PrefixImageHash()
				default:
					if rng.Intn(2) == 0 {
						e.PrefixImageHash()
					}
					e = NewEngineFromImage(Options{}, e.PrefixImage())
				}
			}
			img := e.PrefixImage()
			want := ContentHash(img.Bytes())
			if got := img.Hash(); got != want {
				t.Fatalf("seed %d step %d: PrefixImage hash %#x, content hash %#x", seed, step, got, want)
			}
			if got := e.PrefixImageHash(); got != want {
				t.Fatalf("seed %d step %d: PrefixImageHash %#x, content hash %#x", seed, step, got, want)
			}
		}
	}
}

// A fold reads the table frozen at the last fold while engines built
// from images of that table write and fold concurrently, as phase 1
// stamps leaves while the campaign's workers recover from earlier
// leaves' images. Every image keeps its bytes and its hash, and every
// engine's fold matches its content (CI runs this under -race).
func TestFoldWhileEnginesShareImages(t *testing.T) {
	const size = 1 << 16
	images := make(chan *Image, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for img := range images {
				want := ContentHash(img.Bytes())
				if img.Hash() != want {
					t.Errorf("a leaf image hashes to %#x, content hash %#x", img.Hash(), want)
				}
				e := NewEngineFromImage(Options{}, img)
				randomOps(e, rng, 20)
				if got, want := e.PrefixImageHash(), ContentHash(e.PrefixImage().Bytes()); got != want {
					t.Errorf("an engine built from a leaf image folds %#x, content hash %#x", got, want)
				}
				if ContentHash(img.Bytes()) != want {
					t.Error("an engine built from a leaf image changed the image")
				}
			}
		}()
	}
	src := NewEngine(Options{PoolSize: size})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		randomOps(src, rng, 10)
		src.PrefixImageHash()
		images <- src.PrefixImage()
	}
	close(images)
	wg.Wait()
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

// An engine restored from an image starts from the image's contents, so
// its own snapshot and its first fold hash as the image does.
func TestEngineFromImageInheritsHash(t *testing.T) {
	e := NewEngine(Options{PoolSize: 1 << 14})
	rng := rand.New(rand.NewSource(3))
	randomOps(e, rng, 200)
	img := e.PrefixImage()

	e2 := NewEngineFromImage(Options{}, img)
	if got, want := e2.PrefixImageHash(), img.Hash(); got != want {
		t.Fatalf("restored engine folds %#x, want image hash %#x", got, want)
	}
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
