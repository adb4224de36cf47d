// The campaign driver: one worker pool for every worker count, in both
// modes.
//
// Every injection is independent: it hands a graceful-crash image to a
// private recovery engine. In counter mode that image is the one phase
// 1 froze for the leaf; in stack mode a private engine re-runs the
// deterministic workload with a private stack-matching injector over
// the frozen tree and crashes at the leaf's failure point. Nothing but
// the read-only workload, the stateless application value, the
// immutable tree and its frozen leaf images, the (concurrency-safe)
// stack table and the read-only class plan is shared, so the campaign —
// the hot path of the whole analysis — fans out across a bounded worker
// pool; a single worker is simply the smallest pool. Leaves the plan
// defers to the merge goroutine are not injected by workers at all: the
// merge loop resolves them from the verdict memo, which only it
// touches.
//
// Determinism is preserved by separating execution from merging:
// workers take the next index of the FirstICount-ordered work list from
// one atomic cursor and replay in any interleaving, but a single merge
// loop folds the records into the Result and Report strictly in list
// order, so the final report is byte-identical for any worker count.
// Budget expiry, interruption and stack mode's no-progress abort are
// likewise decided only at merge time, in list order; speculative
// replays beyond the stop point are discarded, so the campaign's
// progress is the same prefix of the work list, and the aggregate
// counters the same, whatever the worker count.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"mumak/internal/fpt"
)

// injectParallel fans the pending leaves out across `workers` goroutines
// pulling indices from one atomic cursor and merges the outcomes
// deterministically. It returns whether the deadline expired before
// every leaf was consumed. The deadline is honoured mid-replay too:
// the replay engine carries it as a wall-clock watchdog. A
// graceful-interruption request is honoured like the deadline — workers
// stop taking leaves, in-flight replays drain, and the merge loop stops
// at the first unexecuted slot in leaf order — but is attributed to
// Result.Interrupted instead of TimedOut.
func injectParallel(pending []*fpt.Leaf, m *mergeState, sb sandboxCfg, workers int) (timedOut bool) {
	res := m.res
	n := len(pending)
	outcomes := make([]replayOutcome, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	// The cursor hands out contiguous indices, and every index taken has
	// its done channel closed, so the merge loop can wait on slots in
	// order without risking a stall.
	var cursor, busy atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				leaf := pending[i]
				if sb.interrupted() || (!sb.deadline.IsZero() && time.Now().After(sb.deadline)) {
					// Leave the slot marked not-executed; the merge
					// loop turns the first such slot into Interrupted
					// or TimedOut.
					close(done[i])
					return
				}
				if m.plan.deferred(leaf) {
					// Resolved by the merge loop.
					outcomes[i] = replayOutcome{executed: true}
				} else {
					t0 := time.Now()
					outcomes[i] = m.replayer(leaf)
					busy.Add(int64(time.Since(t0)))
				}
				close(done[i])
			}
		}()
	}

	for i := 0; i < n; i++ {
		<-done[i]
		out := outcomes[i]
		if out.executed && m.plan.deferred(pending[i]) {
			// By now every earlier leaf — the class's first leaf included
			// — has been merged, so the memo holds the class verdict, or
			// the leaf falls back to a live replay on this goroutine when
			// no earlier leaf produced one. A fallback that trips the
			// mid-replay deadline watchdog is handled by the deadlineHit
			// branch below.
			t0 := time.Now()
			out = m.resolve(pending[i])
			res.WorkerBusy += time.Since(t0)
		}
		if !out.executed || out.deadlineHit {
			// The worker stopped before replaying (deadline or
			// interruption) or the mid-replay watchdog cut the replay
			// short; decided here in leaf order so speculative later
			// replays are discarded. A mid-replay watchdog cut is always
			// budget expiry; an unexecuted slot is attributed to the
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
