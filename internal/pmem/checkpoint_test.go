package pmem

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// driveOps issues a deterministic pseudo-random instruction mix —
// multi-line and partial-line stores, NT stores, all three flush
// flavours, both fences, succeeding and failing CAS, FAA, and loads —
// against the engine. The sequence depends only on the seed, never on
// engine state, so a recording engine and a from-scratch CrashAt engine
// replay the exact same instruction stream. With eadr set it issues the
// stream a build for an eADR platform issues: the same one without its
// cache flushes (see eadrBuild), so no line is ever cleaned.
func driveOps(e *Engine, seed int64, n int, eadr bool) {
	rng := rand.New(rand.NewSource(seed ^ 0x05eed))
	span := e.Size() - 2*CacheLineSize
	addr := func() uint64 { return uint64(rng.Intn(span)) }
	// A dropped flush still draws its address, so both streams share
	// every other instruction.
	flush := func(f func(uint64)) {
		if a := addr(); !eadr {
			f(a)
		}
	}
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
			flush(e.CLFlush)
		case 5:
			flush(e.CLFlushOpt)
		case 6:
			flush(e.CLWB)
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
			a := addr()
			e.Load(make([]byte, 1+rng.Intn(CacheLineSize)), a)
		}
	}
}

// runToCrash executes the op stream on a fresh engine that panics at
// the target counter, and returns the engine frozen in its crash state
// — the reference a checkpoint restore must reproduce exactly.
func runToCrash(t *testing.T, opts Options, seed int64, n int, eadr bool, target uint64) *Engine {
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
		driveOps(e, seed, n, eadr)
	}()
	if !crashed {
		t.Fatalf("reference run never reached counter %d", target)
	}
	return e
}

// diffEngines compares every piece of state an engine keeps: the
// instruction counter, the dirty lines, and the view: the graceful-crash
// image itself and its hash.
func diffEngines(t *testing.T, want, got *Engine, label string) {
	t.Helper()
	if want.icount != got.icount {
		t.Fatalf("%s: icount %d, want %d", label, got.icount, want.icount)
	}
	if !maps.Equal(want.dirty, got.dirty) {
		t.Fatalf("%s: dirty lines diverge: %d lines, want %d", label, len(got.dirty), len(want.dirty))
	}
	if w, g := want.PrefixImageHash(), got.PrefixImageHash(); w != g {
		t.Fatalf("%s: PrefixImageHash %#x, want %#x", label, g, w)
	}
	if w, g := want.PrefixImage(), got.PrefixImage(); !bytes.Equal(w.Bytes(), g.Bytes()) {
		t.Fatalf("%s: PrefixImage bytes diverge", label)
	}
}

// TestCheckpointReplayFidelity is the tentpole differential: for every
// sampled target counter — checkpoint boundaries, their neighbours, the
// very first instructions, and a pseudo-random spread — restoring the
// nearest checkpoint and replaying the mutation-log gap must yield an
// engine byte-identical to a from-scratch execution crashed at that
// counter, across seeds and across the streams of an ADR and an eADR
// build; the latter never cleans a line, so every checkpoint carries a
// growing dirty set.
func TestCheckpointReplayFidelity(t *testing.T) {
	const n = 1200
	for _, eadr := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 4242} {
			t.Run(fmt.Sprintf("seed=%d/eadr=%v", seed, eadr), func(t *testing.T) {
				opts := Options{PoolSize: 1 << 16}
				rec := opts
				rec.CheckpointEvery = 64
				recorder := NewEngine(rec)
				driveOps(recorder, seed, n, eadr)
				s := recorder.Checkpoints()
				if s.Count() == 0 {
					t.Fatal("recording produced no checkpoints")
				}
				if s.LastICount() == 0 {
					t.Fatal("recording logged no instructions")
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
					want := runToCrash(t, opts, seed, n, eadr, target)
					diffEngines(t, want, got, fmt.Sprintf("target %d", target))
				}
			})
		}
	}
}

// TestCheckpointReplayBounds: targets the recorded run never reached
// are an error, not a bogus engine; a zero target is likewise rejected.
// A trailing fence changes no state and logs nothing, but the run
// reached its counter, so a replay can still target it.
func TestCheckpointReplayBounds(t *testing.T) {
	opts := Options{PoolSize: 1 << 14, CheckpointEvery: 32}
	e := NewEngine(opts)
	driveOps(e, 3, 200, false)
	e.SFence()
	s := e.Checkpoints()
	if s.LastICount() != e.ICount() {
		t.Fatalf("LastICount = %d, want the trailing fence's counter %d", s.LastICount(), e.ICount())
	}
	if _, _, err := s.ReplayTo(s.LastICount(), time.Time{}); err != nil {
		t.Fatalf("ReplayTo(the trailing fence): %v", err)
	}
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
	driveOps(e, 5, 2*replayDeadlineEvery, false)
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
	opts := Options{PoolSize: 1 << 16, CheckpointEvery: 64}
	e := NewEngine(opts)
	driveOps(e, 9, 800, false)
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
// change logged, resident size non-trivial but bounded.
func TestCheckpointAccounting(t *testing.T) {
	opts := Options{PoolSize: 1 << 16, CheckpointEvery: 128}
	e := NewEngine(opts)
	driveOps(e, 11, 1000, false)
	s := e.Checkpoints()
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
