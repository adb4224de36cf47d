package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Engine checkpointing — the Agamotto/Jaaru trick transplanted onto the
// deterministic engine.
//
// The campaign no longer uses it: phase 1 freezes every failure point's
// crash image from the engine's view, so counter mode restores nothing.
// Options.CheckpointEvery, Engine.Checkpoints and ReplayTo remain only
// for the benchmark's traced pipeline (bench/trace.go), which still
// times a checkpointed replay.
//
// A recording engine keeps two artifacts as it executes:
//
//   - a mutation log: a flat, compactly encoded stream of every state
//     change (stores, NT stores and the store halves of RMWs, and
//     flushes) with its instruction counter. Loads, fences and failed
//     CASes change no state and are never logged;
//   - periodic checkpoints, every CheckpointEvery events: the frozen
//     view, its hash, a copy of the dirty set, and the log offset of the
//     first entry after the snapshot. Freezing the view is O(1), the
//     hash folds the pages written since the previous checkpoint, and
//     the views share their unchanged pages with each other and with
//     the engine.
//
// A replay to instruction counter F then restores the nearest
// checkpoint strictly below F and applies only the logged changes in
// (checkpoint, F): O(gap) work instead of O(F), with no application
// code, no hook dispatch and no load traffic at all. Because the log
// replays the exact changes the recording engine made, CAS outcomes
// included, the restored engine is the one a from-scratch replay
// crashed at F holds: same view and view hash, same dirty lines.
//
// After the recorded run finishes the store is never written again;
// ReplayTo only reads it, so concurrent replays share one store without
// locks.

// Mutation-log entry tags.
const (
	ckStore   byte = iota + 1 // a cached store, or the store half of an RMW
	ckNTStore                 // a non-temporal store
	ckFlush                   // any flush flavour
)

// ErrReplayDeadline reports that a checkpoint replay was cut short by
// the campaign deadline before reaching its target counter.
var ErrReplayDeadline = errors.New("pmem: checkpoint replay cut by deadline")

// replayDeadlineEvery is how many applied log entries pass between
// wall-clock deadline samples during gap replay.
const replayDeadlineEvery = 4096

// checkpoint is one snapshot of engine state at an instruction counter,
// plus the log offset where post-snapshot entries begin.
type checkpoint struct {
	icount uint64
	// offset is the byte offset into the log of the first entry
	// recorded after this snapshot.
	offset int
	// view is the engine's view, frozen at the snapshot, and viewHash
	// its content hash; dirty is a copy of the dirty set.
	view     []*chunk
	viewHash uint64
	dirty    lineSet
}

// CheckpointStore holds the mutation log and the ordered checkpoints of
// one recorded execution. It is written only by the recording engine
// (single-goroutine, like the engine itself) and becomes read-only once
// that run finishes; ReplayTo never mutates it, so concurrent replays
// are safe.
type CheckpointStore struct {
	opts Options
	log  []byte
	cps  []checkpoint
	// nextAt is the instruction counter at which the next snapshot is
	// due; last is the counter of the last instruction other than a
	// load (the highest counter a replay can target).
	nextAt uint64
	last   uint64
	// entries counts logged changes (diagnostics and tests).
	entries int
}

// newCheckpointStore is called by newEngine when Options.CheckpointEvery
// is set. The genesis checkpoint is the engine's starting state at
// icount 0, so every target counter has a checkpoint strictly below it.
func newCheckpointStore(e *Engine) *CheckpointStore {
	s := &CheckpointStore{opts: e.opts}
	s.take(e)
	return s
}

// Count returns the number of materialised checkpoints (the implicit
// genesis checkpoint excluded).
func (s *CheckpointStore) Count() int { return len(s.cps) - 1 }

// Entries returns the number of logged changes.
func (s *CheckpointStore) Entries() int { return s.entries }

// LastICount returns the counter of the last instruction other than a
// load — the highest counter ReplayTo can reach.
func (s *CheckpointStore) LastICount() uint64 { return s.last }

// Bytes approximates the store's resident size: the mutation log and
// the checkpoints' dirty-set copies. The frozen views share their pages
// with each other and with the recording engine, and are not counted.
func (s *CheckpointStore) Bytes() uint64 {
	total := uint64(len(s.log))
	for i := range s.cps {
		total += s.cps[i].dirty.bytes()
	}
	return total
}

// commit hands a recording engine's store the state change the current
// instruction has just applied: tag 0 for none.
func (e *Engine) commit(tag byte, addr uint64, data []byte) {
	if e.ckpt != nil {
		e.ckpt.record(e, tag, addr, data)
	}
}

// record logs one change: tag, absolute instruction counter, address,
// and for stores the payload. It then takes a checkpoint when one is
// due; the change has fully applied by then, so the snapshot is exactly
// the state a crash strictly after this counter would observe.
func (s *CheckpointStore) record(e *Engine, tag byte, addr uint64, data []byte) {
	if tag != 0 {
		s.log = append(s.log, tag)
		s.log = binary.AppendUvarint(s.log, e.icount)
		s.log = binary.AppendUvarint(s.log, addr)
		if tag != ckFlush {
			s.log = binary.AppendUvarint(s.log, uint64(len(data)))
			s.log = append(s.log, data...)
		}
		s.entries++
	}
	s.last = e.icount
	if e.icount >= s.nextAt {
		s.take(e)
	}
}

// take snapshots the engine: its hash, folded, the view the fold
// froze, and a copy of the dirty set.
func (s *CheckpointStore) take(e *Engine) {
	h := e.PrefixImageHash()
	s.cps = append(s.cps, checkpoint{
		icount:   e.icount,
		offset:   len(s.log),
		view:     e.hashed,
		viewHash: h,
		dirty:    e.dirty.clone(),
	})
	s.nextAt = e.icount + s.opts.CheckpointEvery
}

// nearestBelow returns the index of the latest checkpoint whose counter
// is strictly below target. The genesis checkpoint makes the search
// total.
func (s *CheckpointStore) nearestBelow(target uint64) int {
	lo, hi := 0, len(s.cps)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.cps[mid].icount < target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// restore builds a private engine from checkpoint idx: its view shares
// the checkpoint's frozen pages, and its dirty set is a copy.
func (s *CheckpointStore) restore(idx int) *Engine {
	cp := &s.cps[idx]
	o := s.opts
	// The restored engine never executes application code: no
	// recording, no watchdogs, no capture. It only receives logged
	// changes and then materialises crash images.
	o.CheckpointEvery = 0
	o.MaxEvents = 0
	o.Deadline = time.Time{}
	o.Capture = CaptureNone
	o.Stacks = nil
	e := newEngine(o, sharedMedium(o.PoolSize, cp.view), cp.view, cp.viewHash)
	e.dirty = cp.dirty.clone()
	e.icount = cp.icount
	return e
}

// ReplayTo rebuilds the engine state of a replay crashed at the target
// instruction counter: restore the nearest checkpoint strictly below
// target, apply the logged changes with counters in (checkpoint,
// target), and set the counter to target — exactly the state an
// execution reaches when a hook panics with a *CrashSignal at the event
// with counter target, which happens before the target instruction's
// own change.
//
// It returns the private restored engine and the replayed gap in
// instruction-counter units (target minus the checkpoint counter). A
// target beyond the last recorded instruction returns an error (the
// recorded run never reached it); a non-zero deadline cuts long gap
// replays short with ErrReplayDeadline.
//
// ReplayTo is read-only on the store and safe to call concurrently once
// the recording run has finished.
//
// Deprecated: the campaign judges phase-1 images and restores nothing;
// only the benchmark's traced pipeline (bench/trace.go) still calls it.
func (s *CheckpointStore) ReplayTo(target uint64, deadline time.Time) (*Engine, uint64, error) {
	if target == 0 || target > s.last {
		return nil, 0, fmt.Errorf("pmem: replay target %d beyond the recorded run (last instruction at %d)", target, s.last)
	}
	idx := s.nearestBelow(target)
	cp := &s.cps[idx]
	e := s.restore(idx)
	pos := cp.offset
	applied := 0
	for pos < len(s.log) {
		tag := s.log[pos]
		icount, n := binary.Uvarint(s.log[pos+1:])
		pos += 1 + n
		if icount >= target {
			break
		}
		addr, n := binary.Uvarint(s.log[pos:])
		pos += n
		switch tag {
		case ckStore, ckNTStore:
			size, n := binary.Uvarint(s.log[pos:])
			pos += n
			e.write(addr, s.log[pos:pos+int(size)], tag == ckStore)
			pos += int(size)
		case ckFlush:
			e.dirty.remove(addr)
		default:
			return nil, 0, fmt.Errorf("pmem: corrupt checkpoint log: tag %d at offset %d", tag, pos)
		}
		applied++
		if applied%replayDeadlineEvery == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return nil, 0, ErrReplayDeadline
		}
	}
	e.icount = target
	return e, target - cp.icount, nil
}
