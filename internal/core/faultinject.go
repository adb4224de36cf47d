package core

import (
	"errors"
	"fmt"
	"math"
	"time"
	"unicode/utf8"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// maxNoProgress bounds consecutive stack-mode leaves consumed without an
// injection (the replay errors, panics, hangs, or never re-encounters
// the target call stack). With a deterministic target one such failure
// usually implies every remaining replay fails the same way — stack mode
// re-runs the whole workload per leaf, so grinding through thousands of
// doomed replays would waste the entire budget. A small bound aborts the
// campaign instead while still tolerating the occasional
// non-deterministic hiccup stack mode exists to serve. Counter mode
// keeps consuming: its replays are cheap (they stop at the recorded
// counter) and skips there are honest per-leaf coverage accounting.
const maxNoProgress = 3

// maxInjectionErrors caps the error strings sampled into
// Result.InjectionErrors; SkippedFailurePoints keeps the honest total.
const maxInjectionErrors = 8

// maxLeafRetries bounds the re-replays of a leaf consumed with a
// transient skip (an errored replay, a counter never reached, a call
// stack never re-encountered), instead of giving up on the first hiccup.
// Deterministic targets converge to the same skip, so the bound costs at
// most two extra replays per genuinely dead leaf.
const maxLeafRetries = 2

// retryBackoff is the base pause between leaf retries; attempt k waits
// k×retryBackoff, giving a transient condition a moment to clear without
// slowing a deterministic failure down meaningfully.
const retryBackoff = time.Millisecond

// replayFuelSlack is the extra fuel granted to a counter-mode replay
// past the leaf's recorded instruction counter. A deterministic replay
// crashes at exactly FirstICount events, so anything beyond a small
// slack means the run diverged into unbounded PM activity.
const replayFuelSlack = 4096

// sandboxCfg carries the per-execution watchdog bounds of one campaign:
// the deterministic fuel budget, the recovery wall-clock timeout, and
// the campaign deadline (honoured mid-replay through the engine's
// wall-clock watchdog, not just between replays).
type sandboxCfg struct {
	budget   uint64
	timeout  time.Duration
	deadline time.Time
	// interrupt polls the graceful-interruption request (nil when none
	// was configured). Checked only between leaves, never mid-replay:
	// an in-flight replay drains to completion, so every consumed
	// leaf's outcome — and its journal record — is exactly what an
	// uninterrupted run would have produced.
	interrupt func() bool
	// disabled restores the pre-sandbox execution path (panics
	// propagate, no watchdogs); reachable only from package-internal
	// differential tests proving the sandbox does not perturb reports.
	disabled bool
}

// interrupted polls the graceful-interruption request.
func (sb sandboxCfg) interrupted() bool {
	return sb.interrupt != nil && sb.interrupt()
}

// sandbox derives the campaign watchdog bounds from the configuration.
func (cfg Config) sandbox(deadline time.Time) sandboxCfg {
	sb := sandboxCfg{
		budget:   cfg.HangBudget,
		timeout:  cfg.RecoveryTimeout,
		deadline: deadline,
		disabled: cfg.unsandboxed,
	}
	if cfg.Interrupt != nil {
		ch := cfg.Interrupt
		sb.interrupt = func() bool {
			select {
			case <-ch:
				return true
			default:
				return false
			}
		}
	}
	if sb.budget == 0 {
		sb.budget = DefaultHangBudget
	}
	if sb.timeout == 0 {
		sb.timeout = DefaultRecoveryTimeout
	}
	return sb
}

// campaignMode bundles the per-mode replay parameters so one replay/
// merge/driver implementation serves both injection modes.
type campaignMode struct {
	// stack selects call-stack matching (needs capture, tolerates
	// non-determinism); false selects the §5 instruction-counter replay.
	stack   bool
	gran    fpt.Granularity
	capture pmem.StackCapture
}

// campaignMode derives the injection mode from the configuration.
func (cfg Config) campaignMode() campaignMode {
	m := campaignMode{stack: cfg.StackMode, gran: cfg.Granularity, capture: pmem.CaptureNone}
	if cfg.StackMode {
		m.capture = pmem.CapturePersistency
		if cfg.Granularity == fpt.GranStore {
			m.capture = pmem.CaptureStores
		}
	}
	return m
}

// execute runs one target execution under the campaign sandbox, or the
// strict pre-sandbox path when differential testing disabled it. The
// caller fills the watchdog fields of opts.
func execute(app harness.Application, w workload.Workload, opts pmem.Options,
	sb sandboxCfg, hooks ...pmem.Hook) (*pmem.Engine, harness.Outcome) {

	if sb.disabled {
		eng, sig, err := harness.Execute(app, w, opts, hooks...)
		return eng, harness.Outcome{Sig: sig, Err: err}
	}
	return harness.ExecuteSandboxed(app, w, opts, hooks...)
}

// boundedCheck runs the recovery oracle under the campaign watchdog. The
// second return reports that the campaign deadline — not the target's
// behaviour — cut the check short: such an outcome must become a budget
// expiry, never a finding.
func boundedCheck(app harness.Application, img *pmem.Image, sb sandboxCfg) (oracle.Outcome, bool) {
	if sb.disabled {
		return oracle.Check(app, img), false
	}
	wd := oracle.Watchdog{MaxEvents: sb.budget, Timeout: sb.timeout}
	capped := false
	if !sb.deadline.IsZero() {
		rem := time.Until(sb.deadline)
		if rem <= 0 {
			return oracle.Outcome{}, true
		}
		if rem < wd.Timeout {
			wd.Timeout = rem
			capped = true
		}
	}
	out := oracle.CheckBounded(app, img, wd)
	if out.Verdict == oracle.Hung && capped && (out.Hang == nil || out.Hang.Deadline) {
		// The wall clock fired while capped to the campaign's remaining
		// budget: attribute the stop to the budget. Only a fuel trip is
		// unambiguous target behaviour under a capped timeout.
		return out, true
	}
	return out, false
}

// panicDetail renders a sandbox-captured target panic for a finding.
func panicDetail(during string, p *harness.PanicInfo) string {
	return fmt.Sprintf("target panicked during %s: %v\ntarget trace:\n%s",
		during, p.Value, truncate(p.Trace, 800))
}

// hangDetail renders a fuel-budget kill for a finding. It mentions only
// the configured budget, never measured time, so reports stay
// deterministic.
func hangDetail(during string, h *pmem.HangSignal) string {
	return fmt.Sprintf("target terminated by the hang watchdog during %s: budget of %d PM events exhausted (possible non-termination or runaway PM allocation)",
		during, h.Budget)
}

// replayDuring is the shared finding-phase label of both injection
// modes: the panic/hang liveness wording is identical whichever mode
// produced the finding.
const replayDuring = "a fault-injection replay"

// injectAll claims every pending leaf of the (frozen) failure point
// tree, injecting one fault per unique failure point (steps 7-9 of
// Fig 1), and reports every crash state the recovery oracle rejects. It
// returns whether the deadline expired first.
//
// In the default counter mode the injector crashes at the leaf's
// recorded first-occurrence instruction counter — the §5 optimisation
// that works because the target is deterministic. In stack mode each
// replay targets one leaf and crashes at the first failure-point event
// whose call stack matches it, which needs a stack walk at every
// failure-point candidate of every replay but tolerates
// non-determinism. Either way replays are independent
// (each constructs a private engine and a private injector over the
// immutable tree), so both campaigns fan out across cfg.Workers
// goroutines when asked to; traversal state lives in the ClaimSet that
// hands leaves out, published as Result.Claims. With cfg.Classing only
// the first leaf of each crash-image class without a verdict replays;
// the rest resolve from the campaign's verdict memo at merge
// (classing.go).
//
// Every replay and recovery runs inside the sandbox: a foreign panic or
// a watchdog kill becomes a TargetCrash or RecoveryHang finding instead
// of crashing or stalling the tool.
//
// With a journal configured (cfg.Journal) every consumed leaf is
// durably recorded before the next is folded, and the campaign state is
// snapshotted periodically plus once at the end, however the campaign
// ends. With a resume state (cfg.Resume) the journaled prefix is folded
// through the merge step first — no replay re-executes — and the
// campaign continues from the first unexplored leaf. The only returned
// error is a resume mismatch: a journal recorded under a different
// target, workload or injection mode.
func injectAll(app harness.Application, w workload.Workload, tree *fpt.Tree,
	cfg Config, rep *report.Report, res *Result, deadline time.Time,
	ckpts *pmem.CheckpointStore) (timedOut bool, err error) {

	sb := cfg.sandbox(deadline)
	tree.Freeze()
	cs := fpt.NewClaimSet(tree)
	res.Claims = cs
	mode := cfg.campaignMode()
	m := &mergeState{
		mode: mode, cfg: cfg, rep: rep, res: res,
		tree: tree, cs: cs,
		journal: cfg.Journal, snapEvery: cfg.snapshotEvery(),
	}
	m.replayer = func(leaf *fpt.Leaf) replayOutcome {
		return replayLeafWithRetry(app, w, leaf, tree.Stacks(), mode, sb, ckpts)
	}
	if cfg.Classing {
		// One memo per campaign: application, workload and recovery
		// configuration are fixed here (and pinned by the verdict-cache
		// file's identity), so entries are keyed by image identity alone.
		m.memo = make(map[imageKey]campaign.Judgement, len(cfg.WarmVerdicts))
		for _, e := range cfg.WarmVerdicts {
			m.memo[imageKey{hash: e.Hash, size: e.Size}] = e.Judgement
		}
	}
	defer func() {
		res.ClaimContention = cs.Contention()
		if cfg.PersistVerdicts && m.memo != nil {
			res.VerdictCache = exportMemo(m.memo)
		}
	}()
	// Persist the end state however the campaign ends: completion,
	// budget expiry, interruption, cap, abort, fold-only.
	defer m.finalSnapshot()

	aborted := false
	if cfg.Resume != nil {
		// Fold the journaled verdicts, which also seeds the memo. Claims
		// must be marked before the ClaimSet builds its pending snapshot
		// below.
		if aborted, err = m.fold(cfg.Resume); err != nil {
			return false, err
		}
	}
	if m.memo != nil {
		m.plan = buildClassPlan(tree, cs.Pending(), m.memo)
		res.EquivClasses = len(m.plan.reps)
	}
	if aborted || m.capped() {
		return false, nil
	}
	if sb.interrupted() {
		res.Interrupted = true
		return false, nil
	}

	workers := cfg.Workers
	if workers < 1 || len(cs.Pending()) <= 1 {
		workers = 1
	}
	res.CampaignWorkers = workers
	if workers > 1 {
		return injectParallel(cs, m, sb, workers), nil
	}
	return injectSerial(cs, m, sb), nil
}

// replayOutcome is the result of replaying one leaf on a private engine.
// It carries everything the merge step needs, so that replays can run on
// any goroutine while the shared Result and Report are only ever touched
// in deterministic leaf order.
type replayOutcome struct {
	// executed is false when the replay never ran (deadline expired).
	executed bool
	// deadlineHit reports that the campaign deadline cut the replay or
	// its recovery mid-flight; the leaf is released unconsumed and the
	// campaign stops, exactly as if the deadline had expired between
	// replays.
	deadlineHit bool
	// events is the number of engine instruction events of the replay
	// (all attempts).
	events uint64
	// retries counts extra replay attempts after transient skips.
	retries int
	// injected reports that the replay reached the failure point and
	// crashed there.
	injected bool
	// restored reports that the crash state came from a checkpoint
	// restore plus a mutation-log gap replay, not a from-scratch
	// re-execution of the workload.
	restored bool
	// skipReason is non-empty when the leaf was consumed without an
	// injection: the replay errored, never reached the counter, or never
	// re-encountered the call stack.
	skipReason string
	// targetPanic and targetHang mark replays the sandbox stopped: the
	// target's own code panicked, or the fuel budget expired. The leaf
	// is consumed without an injection and finding reports the
	// behaviour.
	targetPanic bool
	targetHang  bool
	// source is how an injected leaf's verdict was obtained: replayed
	// and judged, inherited from its class, or cached from a
	// verdict-cache file (classing.go).
	source campaign.Source
	// judgement is an injected leaf's crash-image verdict.
	judgement campaign.Judgement
	// finding is the resulting finding, if any: a crash-consistency
	// bug, a target crash, or a recovery hang.
	finding *report.Finding
}

// replayFuel bounds one counter-mode replay. The replay crashes at
// exactly leaf.FirstICount events when the target is deterministic, so
// the slack-padded counter is a far tighter (and still deterministic)
// budget than the campaign-wide one. The sum saturates at MaxUint64
// instead of wrapping: a wrapped (tiny) fuel value would kill a healthy
// replay long before its failure point and misreport it as a hang. The
// campaign budget caps the fuel only when it still lets the replay
// reach its counter — a budget at or below FirstICount can never
// produce anything but that same phantom hang.
func replayFuel(budget, firstICount uint64) uint64 {
	fuel := firstICount + replayFuelSlack
	if fuel < firstICount { // overflow: saturate
		fuel = math.MaxUint64
	}
	if budget != 0 && budget > firstICount && budget < fuel {
		return budget
	}
	return fuel
}

// replayLeaf runs one fault injection: a fresh execution crashed at the
// leaf's failure point, followed by the recovery oracle over the
// graceful-crash image (§4.1). In counter mode the engine crashes
// itself at the recorded instruction counter (§5's minimal
// instrumentation, no hook at all); in stack mode a private targeted
// injector crashes the run at the first event whose call stack matches
// the leaf's. It is safe to call concurrently for different leaves: the
// engine, the injector, the crash image and the oracle's recovery engine
// are all private to the call, and the tree is frozen.
func replayLeaf(app harness.Application, w workload.Workload, leaf *fpt.Leaf,
	stacks *stack.Table, mode campaignMode, sb sandboxCfg,
	ckpts *pmem.CheckpointStore) replayOutcome {

	if !mode.stack && ckpts != nil {
		return replayCheckpointed(app, leaf, sb, ckpts)
	}
	out := replayOutcome{executed: true}
	opts := pmem.Options{Capture: mode.capture, Stacks: stacks}
	var hooks []pmem.Hook
	if mode.stack {
		hooks = append(hooks, &fpt.Injector{Target: leaf, Granularity: mode.gran})
	} else {
		opts.CrashAt = leaf.FirstICount
	}
	if !sb.disabled {
		if mode.stack {
			// A stack-mode replay has no deterministic crash counter to
			// bound it by, so it gets the full campaign fuel budget.
			opts.MaxEvents = sb.budget
		} else {
			opts.MaxEvents = replayFuel(sb.budget, leaf.FirstICount)
		}
		opts.Deadline = sb.deadline
	}
	eng, sres := execute(app, w, opts, sb, hooks...)
	out.events = eng.Events()
	switch {
	case sres.Err != nil:
		// The workload failed before the failure point — the run
		// diverged (should not happen with deterministic targets).
		out.skipReason = fmt.Sprintf("replay failed before the failure point: %v", sres.Err)
		return out
	case sres.Panic != nil:
		out.targetPanic = true
		out.finding = &report.Finding{
			Kind:   report.TargetCrash,
			ICount: eng.ICount(),
			Stack:  leaf.Stack,
			Detail: panicDetail(replayDuring, sres.Panic),
		}
		return out
	case sres.Hang != nil:
		if sres.Hang.Deadline {
			out.deadlineHit = true
			return out
		}
		out.targetHang = true
		out.finding = &report.Finding{
			Kind:   report.TargetCrash,
			ICount: eng.ICount(),
			Stack:  leaf.Stack,
			Detail: hangDetail(replayDuring, sres.Hang),
		}
		return out
	case sres.Sig == nil:
		if mode.stack {
			out.skipReason = "failure-point call stack never re-encountered on replay"
		} else {
			out.skipReason = "target instruction counter never reached on replay"
		}
		return out
	}
	out.injected = true
	finishInjected(app, eng, leaf, sres.Sig.ICount, sb, &out)
	return out
}

// replayCheckpointed is the counter-mode fast path: instead of
// re-executing the workload up to the failure point, it restores engine
// state from the recorded run's nearest checkpoint below the leaf's
// counter and applies only the mutation-log gap — O(gap since
// checkpoint) instead of O(prefix), with no application code at all.
// The restored engine is byte-identical to a from-scratch replay
// crashed at the same counter (checkpoint.go), so the crash image and
// the resulting findings are exactly those of the legacy path.
func replayCheckpointed(app harness.Application, leaf *fpt.Leaf,
	sb sandboxCfg, ckpts *pmem.CheckpointStore) replayOutcome {

	out := replayOutcome{executed: true}
	deadline := sb.deadline
	if sb.disabled {
		deadline = time.Time{}
	}
	eng, gap, err := ckpts.ReplayTo(leaf.FirstICount, deadline)
	switch {
	case errors.Is(err, pmem.ErrReplayDeadline):
		out.deadlineHit = true
		return out
	case err != nil:
		// The recorded run's log ends before this counter. It cannot
		// happen for leaves of the tree that same run built (every
		// failure point is a logged persistency event), but stays an
		// honest per-leaf skip, with the same wording as a from-scratch
		// replay that fell short.
		out.skipReason = "target instruction counter never reached on replay"
		return out
	}
	// The gap is the deterministic measure of replayed work, mirroring
	// the instruction events a from-scratch replay would have spent on
	// the same stretch.
	out.events = gap
	out.restored = true
	out.injected = true
	finishInjected(app, eng, leaf, leaf.FirstICount, sb, &out)
	return out
}

// finishInjected runs the oracle tail shared by every injected replay:
// the vanilla, uninstrumented recovery procedure over the
// graceful-crash image (§4.1), bounded by the hang watchdog. A check
// the campaign deadline cut short reflects the remaining budget, not
// the image: the outcome is marked and never consumed.
func finishInjected(app harness.Application, eng *pmem.Engine, leaf *fpt.Leaf,
	icount uint64, sb sandboxCfg, out *replayOutcome) {

	check, ddl := boundedCheck(app, eng.PrefixImage(), sb)
	if ddl {
		out.deadlineHit = true
		return
	}
	out.judgement = judge(check)
	out.finding = findingFor(out.judgement, icount, leaf.Stack)
}

// replayLeafWithRetry replays a leaf, retrying a bounded number of times
// (with a small backoff) when the replay is consumed by a transient
// skip. Panics, hangs and deadline cuts are never retried: the first is
// already a finding, the others would only burn the remaining budget.
// The retry policy is mode-agnostic: both campaigns share it, so a
// flaky replay costs the same bounded tolerance either way.
func replayLeafWithRetry(app harness.Application, w workload.Workload, leaf *fpt.Leaf,
	stacks *stack.Table, mode campaignMode, sb sandboxCfg,
	ckpts *pmem.CheckpointStore) replayOutcome {

	out := replayLeaf(app, w, leaf, stacks, mode, sb, ckpts)
	for attempt := 1; attempt <= maxLeafRetries && out.skipReason != ""; attempt++ {
		if !sb.deadline.IsZero() && !time.Now().Before(sb.deadline) {
			break
		}
		time.Sleep(time.Duration(attempt) * retryBackoff)
		next := replayLeaf(app, w, leaf, stacks, mode, sb, ckpts)
		next.events += out.events
		next.retries = out.retries + 1
		out = next
	}
	return out
}

// consumeOutcome folds one leaf's replay outcome into the shared result
// and report. The leaf was already claimed when it was handed out; both
// the serial and the parallel campaign call this in FirstICount order,
// so the merged report is byte-identical regardless of scheduling.
func consumeOutcome(leaf *fpt.Leaf, out replayOutcome, rep *report.Report, res *Result) {
	res.EngineEvents += out.events
	res.RetriedFailurePoints += out.retries
	if out.skipReason != "" {
		// Every retry was spent (replayLeafWithRetry consumed them
		// before this outcome surfaced): the leaf is quarantined — set
		// aside with its reason in the report's QuarantinedLeaves
		// section — rather than aborting the campaign or vanishing into
		// a bare counter. SkippedFailurePoints stays the superset
		// coverage count.
		res.SkippedFailurePoints++
		res.QuarantinedFailurePoints++
		rep.Quarantine(report.QuarantinedLeaf{
			LeafID:  leaf.ID,
			ICount:  leaf.FirstICount,
			Stack:   leaf.Stack,
			Reason:  out.skipReason,
			Retries: out.retries,
		})
		res.addInjectionError(fmt.Sprintf("failure point #%d (instruction %d): %s",
			leaf.ID, leaf.FirstICount, out.skipReason))
		return
	}
	if out.targetPanic || out.targetHang {
		// The sandbox stopped the replay before the failure point: the
		// leaf is consumed without an injection, and the behaviour is a
		// finding rather than an error sample.
		if out.targetPanic {
			res.TargetPanics++
		} else {
			res.TargetHangs++
		}
		res.SkippedFailurePoints++
		rep.Add(*out.finding)
		return
	}
	res.Injections++
	if out.restored {
		res.CheckpointRestores++
	}
	switch out.source {
	case campaign.Replayed:
		res.Recoveries++
	case campaign.Inherited:
		res.InheritedVerdicts++
	case campaign.Cached:
		res.PersistentCacheHits++
	}
	if out.judgement.Verdict == oracle.Hung {
		res.RecoveryHangs++
	}
	if out.finding != nil {
		rep.Add(*out.finding)
	}
}

// mergeState is the deterministic folding step shared by the serial and
// parallel drivers: it consumes outcomes strictly in leaf FirstICount
// order and decides, in that same order, when the campaign stops — the
// MaxFailurePoints cap, and stack mode's no-progress abort. It also
// owns the campaign journal: every consumed outcome is durably appended
// (and periodically snapshotted) before the next leaf is folded, and a
// resumed campaign folds its journaled prefix back through the same
// consume step (journal.go).
type mergeState struct {
	mode campaignMode
	cfg  Config
	rep  *report.Report
	res  *Result

	tree *fpt.Tree
	cs   *fpt.ClaimSet

	// journal receives one record per consumed leaf; nil when
	// journaling is off (or degraded after a write error). snapEvery
	// spaces the periodic snapshots; sinceSnap counts records since the
	// last one. consumed counts every consumed leaf, folded or live.
	// folding suppresses re-publishing while a resumed journal prefix
	// is replayed through consume.
	journal   *campaign.Journal
	snapEvery int
	sinceSnap int
	consumed  int
	folding   bool

	// memo is the campaign's verdict memo and plan its class schedule
	// (classing.go); both nil when classing is off. Only the merge
	// goroutine touches memo. replayer runs one live replay (the
	// campaign's replayLeafWithRetry closed over its shared state).
	memo     map[imageKey]campaign.Judgement
	plan     *classPlan
	replayer func(*fpt.Leaf) replayOutcome

	injected   int
	noProgress int
}

// capped reports that the injection cap was reached; the campaign stops
// before consuming further leaves.
func (m *mergeState) capped() bool {
	return m.cfg.MaxFailurePoints > 0 && m.injected >= m.cfg.MaxFailurePoints
}

// consume folds one outcome and returns whether the campaign must abort:
// in stack mode, maxNoProgress consecutive leaves consumed without an
// injection mean replays have stopped reproducing the construction run
// (a deterministic failure would recur on every remaining leaf), so the
// campaign gives up instead of burning the budget on full-workload
// replays that cannot fire.
func (m *mergeState) consume(leaf *fpt.Leaf, out replayOutcome) (abort bool) {
	consumeOutcome(leaf, out, m.rep, m.res)
	// Folded journal records fill the memo too, so a resumed campaign
	// inherits across the resume boundary.
	m.remember(leaf, out)
	m.consumed++
	if !m.folding {
		m.publish(leaf, out)
	}
	if out.injected {
		m.injected++
		m.noProgress = 0
		return false
	}
	if !m.mode.stack {
		return false
	}
	m.noProgress++
	if m.noProgress >= maxNoProgress {
		m.res.InjectionAborted = true
		return true
	}
	return false
}

// injectSerial replays the pending leaves one at a time in FirstICount
// order. It is the Workers<=1 path and the reference order the parallel
// campaign reproduces, for both injection modes. The campaign deadline
// is honoured mid-replay: the replay engine carries it as a wall-clock
// watchdog, so a single long replay can no longer overshoot the budget
// arbitrarily. A graceful-interruption request is honoured between
// leaves: the in-flight replay drains, its outcome is consumed and
// journaled, and the campaign stops with the remaining failure points
// unexplored (and unclaimed, so a resume picks them up).
func injectSerial(cs *fpt.ClaimSet, m *mergeState, sb sandboxCfg) (timedOut bool) {
	res := m.res
	for {
		if sb.interrupted() {
			res.Interrupted = true
			return false
		}
		if !sb.deadline.IsZero() && time.Now().After(sb.deadline) {
			return true
		}
		if m.capped() {
			return false
		}
		_, leaf := cs.Next()
		if leaf == nil {
			return false
		}
		t0 := time.Now()
		out := m.dispatch(leaf)
		res.WorkerBusy += time.Since(t0)
		if out.deadlineHit {
			// The mid-replay watchdog cut the replay short: the failure
			// point stays unexplored, so hand its claim back.
			cs.Release(leaf)
			return true
		}
		if m.consume(leaf, out) {
			return false
		}
	}
}

// truncate shortens s to at most n bytes, backing off to the previous
// rune boundary so that a cut never emits invalid UTF-8 into reports
// (recovery panic traces may carry multi-byte runes).
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "\n    ..."
}
