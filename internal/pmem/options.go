package pmem

import (
	"time"

	"mumak/internal/stack"
)

// CacheLineSize is the unit on which flush instructions act.
const CacheLineSize = 64

// AtomicUnit is the failure-atomicity granularity of the medium: aligned
// groups of 8 bytes persist entirely or not at all (§2 of the paper).
const AtomicUnit = 8

// EvictionPolicy controls spontaneous write-back of dirty cache lines.
type EvictionPolicy uint8

// Eviction policies.
const (
	// EvictNever keeps dirty lines cached until explicitly flushed.
	// This is the deterministic mode used during analysis.
	EvictNever EvictionPolicy = iota
	// EvictSeeded writes back a random dirty line with probability
	// 1/EvictOneIn after each store, driven by the engine seed. This
	// models the cache-replacement non-determinism that masks
	// missing-flush bugs on real hardware.
	EvictSeeded
)

// StackCapture names the event classes whose call stacks hooks may
// request.
type StackCapture uint8

// Stack-capture classes, each a superset of the one before.
const (
	// CaptureNone offers no stacks (counter-mode replay runs).
	CaptureNone StackCapture = iota
	// CapturePersistency offers stacks at flushes and fences (the
	// failure-point granularity of §4.1).
	CapturePersistency
	// CaptureStores offers stacks at stores as well (the store
	// granularity ablation, Fig 3b).
	CaptureStores
	// CaptureAll offers stacks for every event including loads.
	CaptureAll
)

// covers reports whether the class offers stacks for op.
func (c StackCapture) covers(op Opcode) bool {
	switch c {
	case CapturePersistency:
		return op.IsPersistency()
	case CaptureStores:
		return op != OpLoad
	case CaptureAll:
		return true
	}
	return false
}

// Options configures an Engine.
type Options struct {
	// PoolSize is the size of the simulated PM device in bytes. It is
	// rounded up to a multiple of CacheLineSize. Required.
	PoolSize int
	// Eviction selects the spontaneous write-back policy.
	Eviction EvictionPolicy
	// EvictOneIn is the inverse eviction probability under EvictSeeded;
	// 0 means the default of 64.
	EvictOneIn int
	// Seed drives all engine-internal pseudo-randomness.
	Seed int64
	// EADR extends the persistence domain to the CPU caches (enhanced
	// asynchronous DRAM refresh, §2): stores are durable once globally
	// visible and cache flushes become unnecessary, though fences are
	// still required to order non-temporal stores.
	EADR bool
	// CrashAt, when non-zero, makes the engine panic with a
	// *CrashSignal immediately before the instruction with this
	// counter executes: the from-scratch replay of §5's
	// instruction-counter mode, with no event construction or hook
	// dispatch on its hot path. The campaign no longer replays in that
	// mode (phase 1 freezes each failure point's image instead); the
	// replay stays as the reference those images are tested against.
	CrashAt uint64
	// MaxEvents, when non-zero, is a deterministic fuel budget: the
	// engine panics with a *HangSignal once the instruction counter
	// exceeds it. It preempts targets whose PM activity never
	// terminates (infinite recovery loops, runaway event allocation)
	// at a reproducible point.
	MaxEvents uint64
	// Deadline, when non-zero, makes the engine panic with a
	// *HangSignal once the wall clock passes it (sampled every
	// deadlineEvery events). It bounds executions whose event rate is
	// too slow for a fuel budget to be meaningful, and lets campaign
	// budgets cut a replay mid-flight instead of only between replays.
	Deadline time.Time
	// CheckpointEvery, when non-zero, makes the engine record a
	// mutation log and snapshot its full state every CheckpointEvery
	// events into a CheckpointStore (checkpoint.go), from which
	// ReplayTo restores in O(gap) instead of re-executing the whole
	// prefix. Recording costs memory proportional to the trace.
	//
	// Deprecated: the campaign records no checkpoints; only the
	// benchmark's traced pipeline (bench/trace.go) still sets it.
	CheckpointEvery uint64
	// TrackPrefixHash makes the engine keep the coherent (graceful-crash)
	// view as a second copy-on-write medium alongside execution, with its
	// rolling content hash. The crash image at any instruction is then
	// PrefixImage in O(1), and its identity RollingPrefixHash in O(1)
	// instead of PrefixImageHash in O(changed lines). Phase 1 of the
	// campaign uses it to hand every failure point its crash image and
	// its equivalence-class stamp. Costs one line write and two
	// per-line hash folds per store, plus a page copy on the first write
	// to a page after each freeze.
	TrackPrefixHash bool
	// Capture names the event classes whose call stacks hooks may
	// request. Within them the engine captures a stack only when an
	// attached hook needs it: a hook implementing StackDemand is asked
	// per event, any other hook takes every stack the classes offer, and
	// an engine without hooks captures none.
	Capture StackCapture
	// Stacks is the table stacks are interned into. A shared table lets
	// several engine incarnations (pre- and post-failure) agree on IDs.
	// Required when Capture != CaptureNone.
	Stacks *stack.Table
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.PoolSize <= 0 {
		opts.PoolSize = 1 << 20
	}
	if r := opts.PoolSize % CacheLineSize; r != 0 {
		opts.PoolSize += CacheLineSize - r
	}
	if opts.EvictOneIn == 0 {
		opts.EvictOneIn = 64
	}
	if opts.Capture != CaptureNone && opts.Stacks == nil {
		opts.Stacks = stack.NewTable()
	}
	return opts
}
