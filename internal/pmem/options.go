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
)

// covers reports whether the class offers stacks for op.
func (c StackCapture) covers(op Opcode) bool {
	switch c {
	case CapturePersistency:
		return op.IsPersistency()
	case CaptureStores:
		return op != OpLoad
	}
	return false
}

// Options configures an Engine. The simulated cache never evicts: it
// writes a line back only when a flush asks for it.
type Options struct {
	// PoolSize is the size of the simulated PM device in bytes. It is
	// rounded up to a multiple of CacheLineSize. Required.
	PoolSize int
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
	// TrackPrefixHash is ignored: every engine keeps the coherent view
	// and its rolling hash, so PrefixImage and PrefixImageHash are O(1).
	//
	// Deprecated: kept only because the benchmark's traced pipeline
	// (bench/trace.go) still sets it.
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
	if opts.Capture != CaptureNone && opts.Stacks == nil {
		opts.Stacks = stack.NewTable()
	}
	return opts
}
