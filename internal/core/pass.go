// Stack mode's re-execution: one pass serves every failure point.
//
// Stack mode reaches a failure point by re-executing the target and
// matching its call stack (§5). The paper re-runs the process once per
// injection, because the injected crash kills it. Here taking a crash
// image kills nothing: the engine freezes its view in O(1)
// (pmem.Engine.PrefixImage), and the view is the graceful-crash image a
// crash at that instant leaves. So a pass re-executes the workload once
// with a multi-target injector (fpt.NewPass) that, at each target leaf's
// first call-stack match, freezes that leaf's image before the event's
// mutation applies, and crashes the run once every target is served.
// The campaign's workers judge each image as it arrives.
//
// A pass that ends before serving its front leaf, the first unserved
// target and the one it was heading for, gives that leaf the outcome a
// replay of the leaf alone would have had: the two executions agree up
// to where the replay would stop. An error or a call stack never
// re-encountered is a skip, retried with a new pass from that leaf; a
// target panic or a fuel hang is the leaf's finding; a deadline cut is
// budget expiry. Leaves a failed pass served on the way keep their
// images. Replaying one leaf is the pass over that one target.
//
// Accounting stays per leaf, so records, counters and journals are those
// of one replay per leaf: a leaf's Events is the crash counter of its
// image plus the events of its failed attempts, and a failed pass's
// retry is charged to its front leaf.
package core

import (
	"fmt"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// injector runs one campaign's injections: it holds what every injection
// shares, all of it read-only.
type injector struct {
	app    harness.Application
	w      workload.Workload
	stacks *stack.Table
	cfg    Config
	sb     sandboxCfg
}

// slot is one leaf's injection: the outcome the merge loop consumes and,
// until it is judged, the crash image to judge at instruction icount.
type slot struct {
	out    replayOutcome
	img    *pmem.Image
	icount uint64
}

// record starts the journal record of a leaf.
func record(leaf *fpt.Leaf) campaign.Record {
	return campaign.Record{LeafID: leaf.ID, LeafICount: leaf.FirstICount}
}

// phase1 is a counter-mode leaf's injection: the image phase 1 froze at
// its first occurrence (fpt.Builder.KeepImages), exactly the state a
// replay crashed at FirstICount would reach.
func phase1(leaf *fpt.Leaf) slot {
	return slot{out: replayOutcome{executed: true, Record: record(leaf)}, img: leaf.Image, icount: leaf.FirstICount}
}

// finish runs the oracle tail shared by every injection, if the slot
// has an image, and drops the image: the vanilla, uninstrumented
// recovery procedure over the graceful-crash image (§4.1), bounded by
// the hang watchdog, judged at the slot's instruction counter. A check
// the campaign deadline cut short reflects the remaining budget, not
// the image: the outcome is marked and never consumed.
func (in *injector) finish(s *slot) {
	if s.img == nil {
		return
	}
	check, ddl := boundedCheck(in.app, s.img, in.sb)
	s.img = nil
	if ddl {
		s.out.deadlineHit = true
		return
	}
	s.out.Injected = true
	s.out.Judgement = judge(check)
	s.out.FindingICount = s.icount
}

// passes serves the leaves of targets, given in LeavesByICount order,
// with as few passes as their outcomes allow: each pass targets the
// unserved leaves from the front on. deliver gets every target's slot
// exactly once, on the calling goroutine: a served leaf's image to
// judge, or the outcome of the pass that ended on its way to the leaf.
// Once halt returns true, polled before each pass and at every
// failure-point candidate, or a deadline cut ends a pass, the unserved
// targets are delivered not executed.
func (in *injector) passes(targets []*fpt.Leaf, halt func() bool, deliver func(i int, s slot)) {
	served := make([]bool, len(targets))
	front := 0
	// failed holds the events and the count of the failed passes
	// charged to targets[failedAt].
	var failed campaign.Record
	failedAt := -1
	advance := func() int {
		for front < len(targets) && served[front] {
			front++
		}
		return front
	}
	opts := pmem.Options{Capture: in.cfg.capture(), Stacks: in.stacks}
	for advance() < len(targets) && !halt() {
		var at []int
		var leaves []*fpt.Leaf
		for i := front; i < len(targets); i++ {
			if !served[i] {
				at = append(at, i)
				leaves = append(leaves, targets[i])
			}
		}
		halted := false
		pass := fpt.NewPass(leaves, in.cfg.Granularity, func(k int, img *pmem.Image, icount uint64) {
			i := at[k]
			served[i] = true
			s := slot{out: replayOutcome{executed: true, Record: record(targets[i])}, img: img, icount: icount}
			s.out.Events = icount
			if i == failedAt {
				s.out.Events += failed.Events
				s.out.Retries = failed.Retries
			}
			deliver(i, s)
		}, func() bool {
			halted = halt()
			return halted
		})
		eng, sres := execute(in.app, in.w, opts, in.sb, pass)
		if advance() == len(targets) || halted {
			break
		}
		if front != failedAt {
			failed, failedAt = campaign.Record{}, front
		}
		out := endedBefore(targets[front], eng, sres)
		out.Events += failed.Events
		out.Retries = failed.Retries
		if out.SkipReason != "" && out.Retries < maxLeafRetries && !in.sb.expired() {
			// A transient skip: retry from this leaf at once. Nothing
			// a target does depends on wall time, so waiting would
			// clear nothing. Panics, hangs and deadline cuts are never
			// retried: the first two are already findings, the last
			// would only burn the remaining budget.
			failed.Events, failed.Retries = out.Events, out.Retries+1
			continue
		}
		served[front] = true
		deliver(front, slot{out: out})
		if out.deadlineHit {
			break
		}
	}
	for i := front; i < len(targets); i++ {
		if !served[i] {
			deliver(i, slot{})
		}
	}
}

// endedBefore is the outcome of a pass that ended before serving leaf,
// the outcome a replay of leaf alone has: the execution failed, the
// sandbox stopped it (a finding at the counter where it stopped), the
// campaign deadline cut it, or it completed without re-encountering the
// leaf's call stack.
func endedBefore(leaf *fpt.Leaf, eng *pmem.Engine, sres harness.Outcome) replayOutcome {
	out := replayOutcome{executed: true, Record: record(leaf)}
	out.Events = eng.Events()
	switch {
	case sres.Err != nil:
		// The workload failed before the failure point — the run
		// diverged (should not happen with deterministic targets).
		out.SkipReason = fmt.Sprintf("replay failed before the failure point: %v", sres.Err)
	case sres.Panic != nil:
		out.TargetPanic = true
		out.FindingICount, out.CrashDetail = eng.ICount(), panicDetail(replayDuring, sres.Panic)
	case sres.Hang != nil && sres.Hang.Deadline:
		out.deadlineHit = true
	case sres.Hang != nil:
		out.TargetHang = true
		out.FindingICount, out.CrashDetail = eng.ICount(), hangDetail(replayDuring, sres.Hang)
	default:
		out.SkipReason = "failure-point call stack never re-encountered on replay"
	}
	return out
}
