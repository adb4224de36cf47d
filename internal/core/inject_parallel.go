// The campaign driver: one worker pool for every worker count, in both
// modes.
//
// Every injection is independent: it hands a graceful-crash image to a
// private recovery engine. In counter mode that image is the one phase
// 1 froze for the leaf; in stack mode one pass goroutine re-executes
// the workload with a private multi-target injector over the frozen
// tree and freezes each leaf's image at its first call-stack match
// (pass.go), handing it over as it goes. Nothing but the read-only
// workload, the stateless application value, the immutable tree and its
// frozen leaf images, the (concurrency-safe) stack table and the
// read-only class plan is shared, so the recovery checks — the hot path
// of the campaign — fan out across a bounded worker pool; a single
// worker is simply the smallest pool. Leaves the plan defers to the
// merge goroutine are not injected by workers at all: the merge loop
// resolves them from the verdict memo, which only it touches.
//
// Determinism is preserved by separating execution from merging:
// workers take the next index of the FirstICount-ordered work list from
// one atomic cursor, wait for its image when the pass has not frozen it
// yet, and judge in any interleaving, but a single merge loop folds the
// records into the Result and Report strictly in list order, so the
// final report is byte-identical for any worker count. Budget expiry,
// interruption and stack mode's no-progress abort are likewise decided
// only at merge time, in list order; speculative injections beyond the
// stop point are discarded, so the campaign's progress is the same
// prefix of the work list, and the aggregate counters the same,
// whatever the worker count.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"mumak/internal/fpt"
)

// injectParallel fans the pending leaves out across `workers` goroutines
// pulling indices from one atomic cursor, beside the stack-mode pass
// that freezes their images, and merges the outcomes deterministically.
// It returns whether the deadline expired before every leaf was
// consumed. The deadline is honoured mid-pass too: the pass's engine
// carries it as a wall-clock watchdog. A graceful-interruption request
// is honoured like the deadline — workers stop taking leaves, the pass
// halts at its next failure-point candidate, in-flight recovery checks
// drain, and the merge loop stops at the first unexecuted slot in leaf
// order — but is attributed to Result.Interrupted instead of TimedOut.
// No goroutine it starts outlives it.
func injectParallel(in *injector, pending []*fpt.Leaf, m *mergeState, workers int) (timedOut bool) {
	res, sb := m.res, in.sb
	n := len(pending)
	slots := make([]slot, n)
	// ready[i] is closed once the pass has filled slots[i]; nil when the
	// slot is filled up front. done[i] is closed once the slot's outcome
	// is final.
	ready := make([]chan struct{}, n)
	done := make([]chan struct{}, n)
	var targets []*fpt.Leaf
	var at []int
	for i, leaf := range pending {
		done[i] = make(chan struct{})
		switch {
		case m.plan.deferred(leaf):
			// Resolved by the merge loop.
			slots[i].out.executed = true
		case in.cfg.StackMode:
			ready[i] = make(chan struct{})
			targets = append(targets, leaf)
			at = append(at, i)
		default:
			slots[i] = phase1(leaf)
		}
	}

	// The cursor hands out contiguous indices, and every index taken has
	// its done channel closed, so the merge loop can wait on slots in
	// order without risking a stall. The pass fills every slot it owns
	// before it returns, so no worker waits on one forever.
	var cursor, busy atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	if len(targets) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			halt := func() bool { return stop.Load() || sb.interrupted() }
			in.passes(targets, halt, func(k int, s slot) {
				slots[at[k]] = s
				close(ready[at[k]])
			})
			busy.Add(int64(time.Since(t0)))
		}()
	}
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if ready[i] != nil {
					<-ready[i]
				}
				if sb.interrupted() || sb.expired() {
					// Mark the slot not executed; the merge loop turns
					// the first such slot into Interrupted or TimedOut.
					slots[i] = slot{}
					close(done[i])
					return
				}
				t0 := time.Now()
				in.finish(&slots[i])
				busy.Add(int64(time.Since(t0)))
				close(done[i])
			}
		}()
	}

	for i := 0; i < n; i++ {
		<-done[i]
		out := slots[i].out
		if out.executed && m.plan.deferred(pending[i]) {
			// By now every earlier leaf — the class's first leaf included
			// — has been merged, so the memo holds the class verdict, or
			// the leaf falls back to a live injection on this goroutine
			// when no earlier leaf produced one. A fallback that trips the
			// mid-pass deadline watchdog is handled by the deadlineHit
			// branch below.
			t0 := time.Now()
			out = m.resolve(pending[i])
			res.WorkerBusy += time.Since(t0)
		}
		if !out.executed || out.deadlineHit {
			// The worker stopped before judging (deadline or
			// interruption), the pass halted before the leaf, or a
			// mid-flight watchdog cut the pass or the check short;
			// decided here in leaf order so speculative later injections
			// are discarded. A mid-flight watchdog cut is always budget
			// expiry; an unexecuted slot is attributed to the
			// interruption when one is pending, to the deadline
			// otherwise.
			if !out.deadlineHit && sb.interrupted() {
				res.Interrupted = true
			} else {
				timedOut = true
			}
			break
		}
		if m.consume(pending[i], out.Record) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	res.WorkerBusy += time.Duration(busy.Load())
	return timedOut
}
