package pmem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// assertRolling checks the tracked invariant at a quiescent point: the
// frozen coherent view — PrefixImage on a tracking engine — equals, in
// bytes and hash, the graceful-crash image derived from the medium, and
// the rolling hash equals the on-demand ground truth.
func assertRolling(t *testing.T, e *Engine, label string) {
	t.Helper()
	if got, want := e.RollingPrefixHash(), e.PrefixImageHash(); got != want {
		t.Fatalf("%s: rolling prefix hash %#x != PrefixImageHash %#x", label, got, want)
	}
	view, ref := e.PrefixImage(), e.prefixFromMedium()
	if !bytes.Equal(view.Clone().Bytes(), ref.Bytes()) {
		t.Fatalf("%s: frozen view bytes diverge from the medium-derived prefix image", label)
	}
	if view.Hash() != ref.Hash() || ref.Hash() != ContentHash(ref.Bytes()) {
		t.Fatalf("%s: frozen view hash %#x, medium-derived %#x, content %#x",
			label, view.Hash(), ref.Hash(), ContentHash(ref.Bytes()))
	}
}

// exerciseEngine drives one deterministic mixed workload: cached and NT
// stores (full and partial lines), flushes of every flavour, fences,
// RMWs, and enough stores to trigger seeded evictions.
func exerciseEngine(e *Engine, check func(string)) {
	e.Store64(0, 0x1111)
	check("store64")
	e.Store(100, []byte{1, 2, 3, 4, 5})
	check("unaligned store")
	e.CLWB(0)
	check("clwb")
	e.Store64(0, 0x2222) // re-dirty a line with a queued write-back
	check("re-dirty after clwb")
	e.NTStore64(256, 0x3333)
	check("partial-line ntstore")
	buf := make([]byte, 192)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	e.NTStore(320, buf) // full-line chunks
	check("bulk ntstore")
	e.NTStore(130, buf[:10]) // partial NT overlapping a cached line
	check("nt over cached")
	e.SFence()
	check("sfence")
	e.CLFlush(100)
	check("clflush")
	e.CLFlushOpt(320)
	check("clflushopt")
	e.CAS64(512, 0, 0x4444)
	check("cas success")
	e.CAS64(512, 0, 0x5555)
	check("cas failure")
	e.FAA64(512, 3)
	check("faa")
	for i := uint64(0); i < 400; i++ {
		e.Store64(1024+8*(i%64), i)
		if i%16 == 0 {
			e.CLWB(1024 + 8*(i%64))
		}
	}
	check("store burst")
	e.SFence()
	check("final fence")
}

func TestRollingPrefixHashMatchesGroundTruth(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{PoolSize: 1 << 16, TrackPrefixHash: true}},
		{"evicting", Options{PoolSize: 1 << 16, TrackPrefixHash: true,
			Eviction: EvictSeeded, EvictOneIn: 4, Seed: 7}},
		{"eadr", Options{PoolSize: 1 << 16, TrackPrefixHash: true, EADR: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.opts)
			assertRolling(t, e, "fresh engine")
			exerciseEngine(e, func(label string) { assertRolling(t, e, label) })
		})
	}
}

// TestRollingPrefixHashFromImage: an engine restarted from an image
// seeds its coherent view from it, whether the image is a frozen page
// table or flat bytes, and the image keeps its bytes while the engine
// writes over shared pages.
func TestRollingPrefixHashFromImage(t *testing.T) {
	src := NewEngine(Options{PoolSize: 1 << 14})
	src.Store64(64, 0xabcd)
	src.Store64(3*pageSize+8, 0xef)
	src.CLWB(64)
	src.SFence()
	src.Store64(192, 0x77) // dirty and cached: in the prefix image only
	tables := src.PrefixImage()
	want := tables.Clone().Bytes()
	for _, img := range []*Image{tables, NewImage(want)} {
		e := NewEngineFromImage(Options{TrackPrefixHash: true}, img)
		assertRolling(t, e, "restarted engine")
		if got := e.PrefixImage(); got.Hash() != ContentHash(want) || !bytes.Equal(got.Clone().Bytes(), want) {
			t.Fatal("restarted engine's view differs from its image")
		}
		exerciseEngine(e, func(label string) { assertRolling(t, e, "post-restart "+label) })
		if !bytes.Equal(img.Clone().Bytes(), want) {
			t.Fatal("the restarted engine's writes changed its image")
		}
	}
}

// TestRollingPrefixHashCheckpointRoundTrip proves the checkpoint
// round-trip: an engine restored from any checkpoint and gap-replayed
// to a target carries the same rolling hash a from-scratch tracked
// execution has at that instruction — and it still matches the ground
// truth.
func TestRollingPrefixHashCheckpointRoundTrip(t *testing.T) {
	opts := Options{PoolSize: 1 << 16, TrackPrefixHash: true,
		Eviction: EvictSeeded, EvictOneIn: 4, Seed: 7, CheckpointEvery: 32}
	rec := NewEngine(opts)
	type point struct {
		icount uint64
		hash   uint64
	}
	var points []point
	exerciseEngine(rec, func(string) {
		points = append(points, point{rec.ICount(), rec.RollingPrefixHash()})
	})
	ck := rec.Checkpoints()
	if ck.Count() == 0 {
		t.Fatal("recording produced no checkpoints")
	}
	for _, p := range points {
		if p.icount == 0 || p.icount+1 > ck.LastICount() {
			continue
		}
		// ReplayTo targets the state *before* icount; replay to the next
		// counter to land on the state after the recorded instruction.
		e, _, err := ck.ReplayTo(p.icount+1, time.Time{})
		if err != nil {
			t.Fatalf("ReplayTo(%d): %v", p.icount+1, err)
		}
		if got := e.RollingPrefixHash(); got != p.hash {
			t.Fatalf("replay to %d: rolling hash %#x, recorded run had %#x", p.icount, got, p.hash)
		}
		assertRolling(t, e, "restored engine")
	}
}

// TestRollingPrefixHashEvictionOverlap pins the one non-store mutation
// of the coherent view: a seeded eviction whose dirty bytes are
// re-overlaid by an older queued write-back of the same line.
func TestRollingPrefixHashEvictionOverlap(t *testing.T) {
	// EvictOneIn == 1 evicts a cached line after every cached store.
	e := NewEngine(Options{PoolSize: 1 << 12, TrackPrefixHash: true,
		Eviction: EvictSeeded, EvictOneIn: 1, Seed: 1})
	e.NTStore64(0, 0xaaaa) // queued for line 0; NT stores never evict
	assertRolling(t, e, "queued nt store")
	// The store caches line 0 as the only cached line, so the eviction
	// after it writes 0xbbbb back while 0xaaaa is still queued.
	e.Store64(0, 0xbbbb)
	if e.LineDirty(0) {
		t.Fatal("line 0 was not evicted")
	}
	assertRolling(t, e, "after eviction with queued overlap")
	// The older queued write-back lands on top of the written-back line:
	// the view shows the queued value again.
	if got := binary.LittleEndian.Uint64(e.PrefixImage().Clone().Bytes()); got != 0xaaaa {
		t.Fatalf("view reads %#x after the eviction, want the queued 0xaaaa", got)
	}
	e.SFence()
	assertRolling(t, e, "after drain")
}

func TestUntrackedEngineKeepsZeroPrefixHash(t *testing.T) {
	e := NewEngine(Options{PoolSize: 1 << 12})
	e.Store64(0, 1)
	e.CLWB(0)
	e.SFence()
	if e.TracksPrefixHash() {
		t.Fatal("engine reports tracking without TrackPrefixHash")
	}
	if e.RollingPrefixHash() != 0 {
		t.Fatal("untracked engine mutated the rolling prefix hash")
	}
}
