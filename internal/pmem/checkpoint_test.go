package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// driveOps issues a deterministic pseudo-random instruction mix —
// multi-line and partial-line stores, NT stores, all three flush
// flavours, both fences, succeeding and failing CAS, FAA, and loads —
// against the engine. The sequence depends only on the seed, never on
// engine state, so a recording engine and a from-scratch CrashAt engine
// replay the exact same instruction stream.
func driveOps(e *Engine, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed ^ 0x05eed))
	span := e.Size() - 2*CacheLineSize
	addr := func() uint64 { return uint64(rng.Intn(span)) }
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			buf := make([]byte, 1+rng.Intn(3*CacheLineSize/2))
			rng.Read(buf)
			e.Store(addr(), buf)
		case 3:
			buf := make([]byte, 1+rng.Intn(2*CacheLineSize))
			rng.Read(buf)
			e.NTStore(addr(), buf)
		case 4:
			e.CLFlush(addr())
		case 5:
			e.CLFlushOpt(addr())
		case 6:
			e.CLWB(addr())
		case 7:
			if rng.Intn(2) == 0 {
				e.SFence()
			} else {
				e.MFence()
			}
		case 8:
			a := addr() &^ 7
			// A load feeds the expected value, so the CAS succeeds; the
			// +1 variant is guaranteed to fail. Both outcomes must
			// replay from the log, not from the data.
			if rng.Intn(2) == 0 {
				e.CAS64(a, e.Load64(a), rng.Uint64())
			} else {
				e.CAS64(a, e.Load64(a)+1, rng.Uint64())
			}
		case 9:
			e.FAA64(addr()&^7, rng.Uint64())
		default:
			e.Load(addr(), 1+rng.Intn(CacheLineSize))
		}
	}
}

// runToCrash executes the op stream on a fresh engine that panics at
// the target counter, and returns the engine frozen in its crash state
// — the reference a checkpoint restore must reproduce bit for bit.
func runToCrash(t *testing.T, opts Options, seed int64, n int, target uint64) *Engine {
	t.Helper()
	o := opts
	o.CrashAt = target
	e := NewEngine(o)
	crashed := false
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*CrashSignal); ok {
				crashed = true
				return
			}
			if r != nil {
				panic(r)
			}
		}()
		driveOps(e, seed, n)
	}()
	if !crashed {
		t.Fatalf("reference run never reached counter %d", target)
	}
	return e
}

// diffEngines compares every piece of state a crash image can observe:
// instruction counter, medium bytes, rolling medium hash, cache lines
// (contents and dirty masks), the write-pending queue (order and issue
// counters included), and the graceful-crash image itself.
func diffEngines(t *testing.T, want, got *Engine, label string) {
	t.Helper()
	if want.icount != got.icount {
		t.Fatalf("%s: icount %d, want %d", label, got.icount, want.icount)
	}
	if !bytes.Equal(mediumBytes(want), mediumBytes(got)) {
		t.Fatalf("%s: medium contents diverge", label)
	}
	if want.mediumHash != got.mediumHash {
		t.Fatalf("%s: mediumHash %#x, want %#x", label, got.mediumHash, want.mediumHash)
	}
	if len(want.lines) != len(got.lines) {
		t.Fatalf("%s: %d cache lines, want %d", label, len(got.lines), len(want.lines))
	}
	for base, w := range want.lines {
		g := got.lines[base]
		if g == nil {
			t.Fatalf("%s: cache line %#x missing", label, base)
		}
		if g.data != w.data || g.dirty != w.dirty {
			t.Fatalf("%s: cache line %#x diverges (dirty %#x vs %#x)", label, base, g.dirty, w.dirty)
		}
	}
	if !reflect.DeepEqual(want.queue, got.queue) && (len(want.queue) != 0 || len(got.queue) != 0) {
		t.Fatalf("%s: write-pending queue diverges: %d entries vs %d", label, len(got.queue), len(want.queue))
	}
	if w, g := want.PrefixImageHash(), got.PrefixImageHash(); w != g {
		t.Fatalf("%s: PrefixImageHash %#x, want %#x", label, g, w)
	}
	if w, g := want.PrefixImage(), got.PrefixImage(); !bytes.Equal(w.Bytes(), g.Bytes()) {
		t.Fatalf("%s: PrefixImage bytes diverge", label)
	}
}

// mediumBytes materialises an engine's medium.
func mediumBytes(e *Engine) []byte {
	b := make([]byte, e.med.size)
	materialise(b, e.med.chunks)
	return b
}

// TestCheckpointReplayFidelity is the tentpole differential: for every
// sampled target counter — checkpoint boundaries, their neighbours, the
// very first instructions, and a pseudo-random spread — restoring the
// nearest checkpoint and replaying the mutation-log gap must yield an
// engine byte-identical to a from-scratch execution crashed at that
// counter, across seeds, eADR, and the seeded-eviction policy.
func TestCheckpointReplayFidelity(t *testing.T) {
	const n = 1200
	for _, eadr := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 4242} {
			t.Run(fmt.Sprintf("seed=%d/eadr=%v", seed, eadr), func(t *testing.T) {
				opts := Options{
					PoolSize:   1 << 16,
					Seed:       seed,
					EADR:       eadr,
					Eviction:   EvictSeeded,
					EvictOneIn: 8,
				}
				rec := opts
				rec.CheckpointEvery = 64
				recorder := NewEngine(rec)
				driveOps(recorder, seed, n)
				s := recorder.Checkpoints()
				if s.Count() == 0 {
					t.Fatal("recording produced no checkpoints")
				}
				if s.LastICount() == 0 {
					t.Fatal("recording logged no mutations")
				}

				targets := map[uint64]bool{1: true, 2: true, s.LastICount(): true}
				for i := 1; i <= s.Count(); i++ {
					cp := s.cps[i].icount
					for _, d := range []int64{-1, 0, 1} {
						if c := int64(cp) + d; c >= 1 && uint64(c) <= s.LastICount() {
							targets[uint64(c)] = true
						}
					}
				}
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 12; i++ {
					targets[1+uint64(rng.Int63n(int64(s.LastICount())))] = true
				}

				for target := range targets {
					got, gap, err := s.ReplayTo(target, time.Time{})
					if err != nil {
						t.Fatalf("ReplayTo(%d): %v", target, err)
					}
					if gap == 0 || gap > target {
						t.Fatalf("ReplayTo(%d): nonsensical gap %d", target, gap)
					}
					want := runToCrash(t, opts, seed, n, target)
					diffEngines(t, want, got, fmt.Sprintf("target %d", target))
				}
			})
		}
	}
}

// TestCheckpointReplayBounds: targets the recorded run never reached
// are an error, not a bogus engine; a zero target is likewise rejected.
func TestCheckpointReplayBounds(t *testing.T) {
	opts := Options{PoolSize: 1 << 14, CheckpointEvery: 32}
	e := NewEngine(opts)
	driveOps(e, 3, 200)
	s := e.Checkpoints()
	if _, _, err := s.ReplayTo(0, time.Time{}); err == nil {
		t.Error("ReplayTo(0) succeeded; want error")
	}
	if _, _, err := s.ReplayTo(s.LastICount()+1, time.Time{}); err == nil {
		t.Error("ReplayTo past the log succeeded; want error")
	}
}

// TestCheckpointReplayDeadline: an already-expired deadline cuts the
// gap replay with ErrReplayDeadline once enough entries are applied.
func TestCheckpointReplayDeadline(t *testing.T) {
	opts := Options{PoolSize: 1 << 16, CheckpointEvery: 1 << 20}
	e := NewEngine(opts)
	// More logged mutations than one deadline-check stride, all in one
	// checkpoint gap, so the replay must hit the wall-clock sample.
	driveOps(e, 5, 2*replayDeadlineEvery)
	s := e.Checkpoints()
	if s.Entries() <= replayDeadlineEvery {
		t.Fatalf("fixture too small: %d entries", s.Entries())
	}
	_, _, err := s.ReplayTo(s.LastICount(), time.Now().Add(-time.Hour))
	if err != ErrReplayDeadline {
		t.Fatalf("err = %v, want ErrReplayDeadline", err)
	}
}

// TestCheckpointConcurrentRestores: the store is read-only after the
// recorded run, so concurrent ReplayTo calls — the parallel campaign's
// sharing pattern — must all reproduce the same state (run under -race
// in CI).
func TestCheckpointConcurrentRestores(t *testing.T) {
	opts := Options{PoolSize: 1 << 16, Seed: 9, Eviction: EvictSeeded, EvictOneIn: 8, CheckpointEvery: 64}
	e := NewEngine(opts)
	driveOps(e, 9, 800)
	s := e.Checkpoints()
	targets := []uint64{1, s.LastICount() / 3, s.LastICount() / 2, s.LastICount()}
	wantHash := make([]uint64, len(targets))
	for i, target := range targets {
		eng, _, err := s.ReplayTo(target, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		wantHash[i] = eng.PrefixImageHash()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, target := range targets {
				eng, _, err := s.ReplayTo(target, time.Time{})
				if err != nil {
					errs <- err
					return
				}
				if h := eng.PrefixImageHash(); h != wantHash[i] {
					errs <- fmt.Errorf("target %d: hash %#x, want %#x", target, h, wantHash[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCheckpointAccounting: Count, Entries and Bytes describe the
// recording truthfully — snapshots spaced by the interval, every
// mutation logged, resident size non-trivial but bounded.
func TestCheckpointAccounting(t *testing.T) {
	opts := Options{PoolSize: 1 << 16, CheckpointEvery: 128}
	e := NewEngine(opts)
	driveOps(e, 11, 1000)
	s := e.Checkpoints()
	if s.Interval() != 128 {
		t.Errorf("Interval = %d, want 128", s.Interval())
	}
	maxCkpts := int(e.ICount()/128) + 1
	if s.Count() < 1 || s.Count() > maxCkpts {
		t.Errorf("Count = %d, want within [1, %d] for %d events", s.Count(), maxCkpts, e.ICount())
	}
	if s.Entries() == 0 || s.LastICount() == 0 || s.LastICount() > e.ICount() {
		t.Errorf("implausible log accounting: %d entries, last %d, icount %d",
			s.Entries(), s.LastICount(), e.ICount())
	}
	if b := s.Bytes(); b < uint64(len(s.log)) {
		t.Errorf("Bytes = %d, below the log size %d", b, len(s.log))
	}
	// Consecutive snapshots are spaced by at least the interval (they
	// are taken at the first mutation at-or-after the due point).
	for i := 2; i < len(s.cps); i++ {
		if d := s.cps[i].icount - s.cps[i-1].icount; d < 128 {
			t.Errorf("checkpoints %d and %d only %d events apart", i-1, i, d)
		}
	}
}
