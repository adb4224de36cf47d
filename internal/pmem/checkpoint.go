package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"time"
)

// Engine checkpointing — the Agamotto/Jaaru trick transplanted onto the
// deterministic engine.
//
// The campaign no longer uses it: phase 1 freezes every failure point's
// crash image from the engine's coherent view, so counter mode restores
// nothing. Options.CheckpointEvery,
// Engine.Checkpoints and ReplayTo remain only for the benchmark's traced
// pipeline (bench/trace.go), which still times a checkpointed replay.
//
// Every counter-mode fault injection needs only one thing from the
// replay: the engine's durable state at the leaf's instruction counter.
// The application's volatile state is irrelevant — the run crashes
// there. Re-executing the workload from icount 0 for every leaf is
// therefore pure waste: O(N²) engine events over a campaign whose
// failure points cover an N-event trace.
//
// Instead, the phase-1 instrumented run records two artifacts as it
// executes:
//
//   - a mutation log: a flat, compactly encoded stream of every
//     state-changing engine operation (stores, NT stores, flushes,
//     fences, RMWs) with its instruction counter.
//     Loads are never logged — they do not change engine state — and
//     the encoding is append-only bytes, so the log costs a few bytes
//     per persistence event;
//   - periodic checkpoints, every CheckpointEvery events: the full
//     engine state — the medium as a *delta*: the lines persisted since
//     the previous checkpoint, copied into a per-checkpoint slab — plus
//     the frozen view and its hash, the cache's dirty masks, the
//     write-pending queue, and the log offset of the first entry after
//     the snapshot.
//
// Deltas chain: checkpoint k's medium is the store's genesis pages (none
// for the usual zeroed pool) with deltas 1..k applied in order. Each
// persisted line is therefore retained at most once per interval it was
// written in, so the whole store costs O(lines persisted) memory — a
// cumulative-overlay design (one COW image per checkpoint) retains
// every since-base line again in every later snapshot, which is O(N²)
// memory over a long recording and turns the campaign GC-bound.
//
// A replay to instruction counter F then restores the nearest
// checkpoint strictly below F and applies only the logged mutations in
// (checkpoint, F): O(gap) work instead of O(F), with no application
// code, no hook dispatch and no load traffic at all. Because the log
// replays the *exact* mutations the recording engine performed —
// including CAS outcomes — the restored engine is byte-identical to a
// from-scratch replay crashed at F: same medium, same view and view
// hash, same dirty masks, same queue (in order). The graceful-crash
// image and its dedup-cache key therefore match the non-checkpointed
// campaign exactly, which keeps reports byte-identical with
// checkpointing on or off.
//
// After the instrumented run finishes the store is never written again;
// ReplayTo only reads it, so the campaign's parallel workers share one
// store without locks (the same read-only sharing the frozen failure
// point tree uses).

// Mutation-log entry tags. The tag encodes the operation and, for RMWs,
// whether the compare succeeded, so replay never has to re-derive a
// data-dependent outcome.
const (
	ckStore byte = iota + 1
	ckNTStore
	ckCLFlush
	ckFlushAsync // CLWB or CLFlushOpt: one mutation
	ckFence
	ckRMW       // fence semantics + an applied 8-byte store
	ckRMWFailed // fence semantics only (compare failed)
)

// ErrReplayDeadline reports that a checkpoint replay was cut short by
// the campaign deadline before reaching its target counter.
var ErrReplayDeadline = errors.New("pmem: checkpoint replay cut by deadline")

// replayDeadlineEvery is how many applied log entries pass between
// wall-clock deadline samples during gap replay.
const replayDeadlineEvery = 4096

// checkpoint is one snapshot of full engine state at an instruction
// counter, plus the log offset where post-snapshot entries begin.
type checkpoint struct {
	icount uint64
	// offset is the byte offset into the log of the first entry
	// recorded after this snapshot.
	offset int
	// delta holds the medium lines persisted since the previous
	// checkpoint (line base → line content in a shared slab); the
	// medium at this checkpoint is the genesis base with deltas 1..k
	// applied in order.
	delta map[uint64][]byte
	// view is the engine's view, frozen at the snapshot, and viewHash
	// its rolling hash. The genesis checkpoint has no view: there the
	// view is the medium, whose hash viewHash holds.
	view     []*chunk
	viewHash uint64
	// cache and queue are copies of the dirty masks and the
	// write-pending queue.
	cache map[uint64]uint64
	queue []pending
}

// CheckpointStore holds the mutation log and the ordered checkpoints of
// one recorded execution. It is written only by the recording engine
// (single-goroutine, like the engine itself) and becomes read-only once
// that run finishes; ReplayTo never mutates it, so concurrent replays
// are safe.
type CheckpointStore struct {
	opts     Options
	interval uint64
	log      []byte
	cps      []checkpoint
	// base is the page table of the medium at recording start, frozen
	// and shared with the image the recording engine started from; nil
	// means an all-zero pool (the common case).
	base []*chunk
	// dirty accumulates the bases of lines persisted to the medium
	// since the last snapshot; take drains it into that checkpoint's
	// delta.
	dirty map[uint64]struct{}
	// nextAt is the instruction counter at which the next snapshot is
	// due; last is the counter of the most recent logged mutation (the
	// highest counter a replay can target).
	nextAt uint64
	last   uint64
	// entries counts logged mutations (diagnostics and tests).
	entries int
}

// newCheckpointStore is called by NewEngine when Options.CheckpointEvery
// is set. opts must already have defaults applied.
func newCheckpointStore(opts Options, interval uint64) *CheckpointStore {
	s := &CheckpointStore{
		opts: opts, interval: interval, nextAt: interval,
		dirty: make(map[uint64]struct{}),
	}
	// The genesis checkpoint: a fresh engine over a zeroed pool at
	// icount 0. It guarantees every target counter has a checkpoint
	// strictly below it.
	s.cps = append(s.cps, checkpoint{})
	return s
}

// Interval returns the configured snapshot interval in engine events.
func (s *CheckpointStore) Interval() uint64 { return s.interval }

// Count returns the number of materialised checkpoints (the implicit
// genesis checkpoint excluded).
func (s *CheckpointStore) Count() int { return len(s.cps) - 1 }

// Entries returns the number of logged mutations.
func (s *CheckpointStore) Entries() int { return s.entries }

// LastICount returns the instruction counter of the last logged
// mutation — the highest counter ReplayTo can reach.
func (s *CheckpointStore) LastICount() uint64 { return s.last }

// Bytes approximates the store's resident size: the mutation log, the
// genesis pages (if any), and the per-checkpoint deltas plus dirty-mask
// and queue copies. The frozen views share their pages with each other
// and with the recording engine, and are not counted.
func (s *CheckpointStore) Bytes() uint64 {
	const maskBytes, pendingBytes = 16, 80 // map key and value; struct size
	total := uint64(len(s.log))
	for _, c := range s.base {
		if c == nil {
			continue
		}
		for _, pg := range c.pages {
			if pg != nil {
				total += pageSize
			}
		}
	}
	for i := range s.cps {
		cp := &s.cps[i]
		total += uint64(len(cp.cache))*maskBytes + uint64(len(cp.queue))*pendingBytes
		total += uint64(len(cp.delta)) * (CacheLineSize + 24)
	}
	return total
}

// record appends one mutation entry: tag, absolute instruction counter,
// then per-tag operands. Store-class entries carry their payload; flush
// entries carry the line base; fences carry nothing.
func (s *CheckpointStore) record(tag byte, icount, addr uint64, data []byte) {
	s.log = append(s.log, tag)
	s.log = binary.AppendUvarint(s.log, icount)
	switch tag {
	case ckStore, ckNTStore:
		s.log = binary.AppendUvarint(s.log, addr)
		s.log = binary.AppendUvarint(s.log, uint64(len(data)))
		s.log = append(s.log, data...)
	case ckCLFlush, ckFlushAsync:
		s.log = binary.AppendUvarint(s.log, addr)
	case ckRMW:
		s.log = binary.AppendUvarint(s.log, addr)
		s.log = append(s.log, data...) // exactly 8 bytes
	case ckRMWFailed:
		s.log = binary.AppendUvarint(s.log, addr)
	case ckFence:
	}
	s.last = icount
	s.entries++
}

// take snapshots the recording engine's full state. The medium delta is
// the lines persisted since the previous snapshot, copied into one slab
// (O(changed lines), no sharing with the engine's own COW snapshot
// machinery); the view is frozen in O(1), and the dirty masks and the
// queue are small and copied outright.
func (s *CheckpointStore) take(e *Engine) {
	cp := checkpoint{
		icount:   e.icount,
		offset:   len(s.log),
		view:     e.view.freeze(),
		viewHash: e.viewHash,
	}
	if len(s.dirty) > 0 {
		cp.delta = make(map[uint64][]byte, len(s.dirty))
		slab := make([]byte, len(s.dirty)*CacheLineSize)
		for base := range s.dirty {
			ln := slab[:CacheLineSize:CacheLineSize]
			slab = slab[CacheLineSize:]
			copy(ln, e.med.line(base))
			cp.delta[base] = ln
		}
		clear(s.dirty)
	}
	if len(e.cache) > 0 {
		cp.cache = maps.Clone(e.cache)
	}
	if len(e.queue) > 0 {
		cp.queue = append([]pending(nil), e.queue...)
	}
	s.cps = append(s.cps, cp)
	s.nextAt = e.icount + s.interval
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

// restore materialises a private engine from checkpoint idx: the
// genesis pages (none for the usual zeroed pool) overlaid with deltas
// 1..idx in order, written into fresh or copied pages, and the view the
// checkpoint froze. Restoring costs O(lines persisted up to the
// checkpoint) — line-copy work, far below re-executing the application —
// plus O(cached lines + queue), whatever the pool size.
func (s *CheckpointStore) restore(idx int) *Engine {
	cp := &s.cps[idx]
	o := s.opts
	// The restored engine never executes application code: no
	// recording, no watchdogs, no capture. It only receives logged
	// mutations and then materialises crash images.
	o.CheckpointEvery = 0
	o.CrashAt = 0
	o.MaxEvents = 0
	o.Deadline = time.Time{}
	o.Capture = CaptureNone
	o.Stacks = nil
	var med medium
	if s.base != nil {
		med = sharedMedium(o.PoolSize, s.base)
	} else {
		med = newMedium(o.PoolSize)
	}
	e := newEngine(o, med, cp.viewHash)
	for j := 1; j <= idx; j++ {
		for base, ln := range s.cps[j].delta {
			copy(e.med.writable(base), ln)
		}
	}
	if idx > 0 {
		e.view = sharedMedium(o.PoolSize, cp.view)
	}
	maps.Copy(e.cache, cp.cache)
	e.queue = append(e.queue, cp.queue...)
	e.icount = cp.icount
	return e
}

// ReplayTo rebuilds the engine state of a replay crashed at the target
// instruction counter: restore the nearest checkpoint strictly below
// target, apply the logged mutations with counters in (checkpoint,
// target), and set the counter to target — exactly the state an
// execution reaches when the engine panics at CrashAt == target, which
// happens before the target instruction's own mutation.
//
// It returns the private restored engine and the replayed gap in
// instruction-counter units (target minus the checkpoint counter). A
// target beyond the last logged mutation returns an error (the
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
		return nil, 0, fmt.Errorf("pmem: replay target %d beyond the recorded run (last mutation at %d)", target, s.last)
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
		switch tag {
		case ckStore, ckNTStore:
			addr, n := binary.Uvarint(s.log[pos:])
			pos += n
			size, n := binary.Uvarint(s.log[pos:])
			pos += n
			data := s.log[pos : pos+int(size)]
			pos += int(size)
			if tag == ckStore {
				e.applyStore(addr, data)
			} else {
				e.applyNTStore(addr, data)
			}
		case ckCLFlush:
			base, n := binary.Uvarint(s.log[pos:])
			pos += n
			e.applyCLFlush(base)
		case ckFlushAsync:
			base, n := binary.Uvarint(s.log[pos:])
			pos += n
			e.applyFlushAsync(base)
		case ckFence:
			e.drain()
		case ckRMW:
			addr, n := binary.Uvarint(s.log[pos:])
			pos += n
			data := s.log[pos : pos+8]
			pos += 8
			e.drain()
			e.applyStore(addr, data)
		case ckRMWFailed:
			_, n := binary.Uvarint(s.log[pos:])
			pos += n
			e.drain()
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
