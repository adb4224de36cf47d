package core

import (
	"fmt"
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
// re-executes nothing, so it has nothing to abort.
const maxNoProgress = 3

// maxInjectionErrors caps the error strings sampled into
// Result.InjectionErrors; SkippedFailurePoints keeps the honest total.
const maxInjectionErrors = 8

// maxLeafRetries bounds the re-replays of a leaf consumed with a
// transient skip (an errored replay, a call stack never
// re-encountered), instead of giving up on the first hiccup.
// Deterministic targets converge to the same skip, so the bound costs at
// most two extra replays per genuinely dead leaf.
const maxLeafRetries = 2

// retryBackoff is the base pause between leaf retries; attempt k waits
// k×retryBackoff, giving a transient condition a moment to clear without
// slowing a deterministic failure down meaningfully.
const retryBackoff = time.Millisecond

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

// capture is the stack-capture class of the configured granularity:
// the call stacks of persistency instructions, or of every store at
// store granularity. Phase 1 captures them for the failure point tree;
// a stack-mode replay captures them to match its leaf.
func (cfg Config) capture() pmem.StackCapture {
	if cfg.Granularity == fpt.GranStore {
		return pmem.CaptureStores
	}
	return pmem.CapturePersistency
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

// injectAll walks the (frozen) failure point tree's leaves in
// first-occurrence order, injecting one fault per unique failure point
// (steps 7-9 of Fig 1), and reports every crash state the recovery
// oracle rejects. It returns whether the deadline expired first.
//
// In the default counter mode each leaf's crash state is the image
// phase 1 froze at its recorded first-occurrence instruction counter —
// the §5 optimisation that works because the target is deterministic —
// so an injection is one recovery check and no re-execution. In stack
// mode each replay targets one leaf and crashes at the first
// failure-point event whose call stack matches it, which needs a stack
// walk at every failure-point candidate of every replay but tolerates
// non-determinism. Either way injections are independent (each builds a
// private recovery engine, and a stack-mode replay a private engine and
// injector, over the immutable tree), so every campaign runs on the one
// worker pool of injectParallel, with max(cfg.Workers, 1) workers but
// never more than there are pending leaves.
// With cfg.Classing only the first leaf of each crash-image class
// without a verdict is judged; the rest resolve from the campaign's
// verdict memo at merge (classing.go).
//
// Leaves are consumed strictly in tree.LeavesByICount() order, so
// however the campaign stops — completion, budget, interruption,
// abort — its progress is a prefix of that order, of length
// Injections + SkippedFailurePoints. That length is the only progress
// state: the work list is the order past any folded journal prefix.
//
// Every replay and recovery runs inside the sandbox: a foreign panic or
// a watchdog kill becomes a TargetCrash or RecoveryHang finding instead
// of crashing or stalling the tool.
//
// With a journal configured (cfg.Journal) every consumed leaf is
// durably recorded before the next is folded. With a resume state
// (cfg.Resume) the journaled prefix is folded through the merge step
// first — no replay re-executes — and the campaign continues from the
// first unexplored leaf. The only returned error is a resume mismatch:
// a journal recorded under a different target, workload or injection
// mode.
func injectAll(app harness.Application, w workload.Workload, tree *fpt.Tree,
	cfg Config, rep *report.Report, res *Result, deadline time.Time) (timedOut bool, err error) {

	sb := cfg.sandbox(deadline)
	tree.Freeze()
	order := tree.LeavesByICount()
	m := &mergeState{cfg: cfg, rep: rep, res: res, journal: cfg.Journal}
	m.replayer = func(leaf *fpt.Leaf) replayOutcome {
		return replayLeafWithRetry(app, w, leaf, tree.Stacks(), cfg, sb)
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
		if cfg.PersistVerdicts && m.memo != nil {
			res.VerdictCache = exportMemo(m.memo)
		}
	}()

	aborted := false
	if cfg.Resume != nil {
		// Fold the journaled verdicts, which also seeds the memo.
		if aborted, err = m.fold(cfg.Resume, order); err != nil {
			return false, err
		}
	}
	pending := order[m.consumed:]
	if m.memo != nil {
		m.plan = buildClassPlan(order, pending, m.memo)
		res.EquivClasses = len(m.plan.reps)
	}
	if aborted {
		return false, nil
	}
	if sb.interrupted() {
		res.Interrupted = true
		return false, nil
	}
	res.CampaignWorkers = min(max(cfg.Workers, 1), max(len(pending), 1))
	return injectParallel(pending, m, sb, res.CampaignWorkers), nil
}

// replayOutcome is the result of injecting one leaf: the leaf's journal
// record, which carries everything the merge step needs, so that
// injections can run on any goroutine while the shared Result and Report
// are only ever touched in deterministic leaf order.
type replayOutcome struct {
	// executed is false when the injection never ran (deadline
	// expired or interruption requested).
	executed bool
	// deadlineHit reports that the campaign deadline cut the replay or
	// its recovery mid-flight; the leaf stays unconsumed and the
	// campaign stops, exactly as if the deadline had expired between
	// replays.
	deadlineHit bool
	campaign.Record
}

// replayLeaf runs one fault injection (§4.1): the recovery oracle over
// the graceful-crash image at the leaf's failure point. In counter mode
// that image is the one phase 1 froze at the leaf's first occurrence
// (fpt.Builder.KeepImages) — exactly the state a replay crashed at
// FirstICount would reach — so no application code runs before the
// check. In stack mode a fresh execution with a private targeted
// injector crashes at the first event whose call stack matches the
// leaf's. It is safe to call concurrently for different leaves: the
// engine, the injector, the crash image and the oracle's recovery
// engine are all private to the call, and the tree and its images are
// frozen.
func replayLeaf(app harness.Application, w workload.Workload, leaf *fpt.Leaf,
	stacks *stack.Table, cfg Config, sb sandboxCfg) replayOutcome {

	out := replayOutcome{executed: true, Record: campaign.Record{LeafID: leaf.ID, LeafICount: leaf.FirstICount}}
	if !cfg.StackMode {
		finishInjected(app, leaf.Image, leaf.FirstICount, sb, &out)
		return out
	}
	opts := pmem.Options{Capture: cfg.capture(), Stacks: stacks}
	if !sb.disabled {
		// A stack-mode replay has no deterministic crash counter to
		// bound it by, so it gets the full campaign fuel budget.
		opts.MaxEvents = sb.budget
		opts.Deadline = sb.deadline
	}
	eng, sres := execute(app, w, opts, sb, &fpt.Injector{Target: leaf, Granularity: cfg.Granularity})
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
	case sres.Sig == nil:
		out.SkipReason = "failure-point call stack never re-encountered on replay"
	default:
		finishInjected(app, eng.PrefixImage(), sres.Sig.ICount, sb, &out)
	}
	return out
}

// finishInjected runs the oracle tail shared by every injection: the
// vanilla, uninstrumented recovery procedure over the graceful-crash
// image (§4.1), bounded by the hang watchdog, judged at instruction
// icount. A check the campaign deadline cut short reflects the
// remaining budget, not the image: the outcome is marked and never
// consumed.
func finishInjected(app harness.Application, img *pmem.Image, icount uint64, sb sandboxCfg, out *replayOutcome) {
	check, ddl := boundedCheck(app, img, sb)
	if ddl {
		out.deadlineHit = true
		return
	}
	out.Injected = true
	out.Judgement = judge(check)
	out.FindingICount = icount
}

// replayLeafWithRetry replays a leaf, retrying a bounded number of times
// (with a small backoff) when the replay is consumed by a transient
// skip. Panics, hangs and deadline cuts are never retried: the first is
// already a finding, the others would only burn the remaining budget.
// Only stack-mode replays can skip: a counter-mode injection judges its
// phase-1 image and never retries.
func replayLeafWithRetry(app harness.Application, w workload.Workload, leaf *fpt.Leaf,
	stacks *stack.Table, cfg Config, sb sandboxCfg) replayOutcome {

	out := replayLeaf(app, w, leaf, stacks, cfg, sb)
	for attempt := 1; attempt <= maxLeafRetries && out.SkipReason != ""; attempt++ {
		if !sb.deadline.IsZero() && !time.Now().Before(sb.deadline) {
			break
		}
		time.Sleep(time.Duration(attempt) * retryBackoff)
		next := replayLeaf(app, w, leaf, stacks, cfg, sb)
		next.Events += out.Events
		next.Retries = out.Retries + 1
		out = next
	}
	return out
}

// leafFinding renders a consumed leaf's finding from its record, keyed
// by the record's FindingICount and the leaf's own call stack: a target
// crash for a replay the sandbox stopped, a crash-consistency bug or a
// recovery hang for a rejected crash image, nil otherwise. Live and
// folded leaves share it; leaf stacks are re-derived deterministically
// (program counters are process-local), so a folded leaf renders
// byte-identically to the live one.
func leafFinding(leaf *fpt.Leaf, rec campaign.Record) *report.Finding {
	kind, detail := report.CrashConsistency, rec.Detail
	switch {
	case rec.TargetPanic || rec.TargetHang:
		kind, detail = report.TargetCrash, rec.CrashDetail
	case !rec.Injected || rec.Verdict == oracle.Consistent:
		return nil
	case rec.Verdict == oracle.Hung:
		kind = report.RecoveryHang
	}
	return &report.Finding{Kind: kind, ICount: rec.FindingICount, Stack: leaf.Stack, Detail: detail}
}

// mergeState is the campaign's deterministic folding step: it consumes
// records strictly in leaf FirstICount order and decides, in that same
// order, when the campaign stops early — stack mode's no-progress
// abort. It also owns the campaign journal: every consumed record is
// durably appended before the next leaf is folded, and a resumed
// campaign folds its journaled prefix back through the same consume
// step (journal.go).
type mergeState struct {
	cfg Config
	rep *report.Report
	res *Result

	// journal receives one record per consumed leaf; nil when
	// journaling is off (or degraded after a write error). consumed
	// counts every consumed leaf, folded or live: the length of the
	// campaign's prefix of LeavesByICount. folding suppresses
	// re-publishing while a resumed journal prefix is replayed through
	// consume.
	journal  *campaign.Journal
	consumed int
	folding  bool

	// memo is the campaign's verdict memo and plan its class schedule
	// (classing.go); both nil when classing is off. Only the merge
	// goroutine touches memo. replayer runs one live replay (the
	// campaign's replayLeafWithRetry closed over its shared state).
	memo     map[imageKey]campaign.Judgement
	plan     *classPlan
	replayer func(*fpt.Leaf) replayOutcome

	noProgress int
}

// consume folds one consumed leaf's record, live or folded from a
// journal, into the shared result and report, in FirstICount order, so
// the merged report is byte-identical regardless of scheduling. It
// returns whether the campaign must abort: in stack mode, maxNoProgress
// consecutive leaves consumed without an injection mean replays have
// stopped reproducing the construction run (a deterministic failure
// would recur on every remaining leaf), so the campaign gives up
// instead of burning the budget on full-workload replays that cannot
// fire.
func (m *mergeState) consume(leaf *fpt.Leaf, rec campaign.Record) (abort bool) {
	res := m.res
	res.EngineEvents += rec.Events
	res.RetriedFailurePoints += rec.Retries
	switch {
	case rec.SkipReason != "":
		// Every retry was spent (replayLeafWithRetry consumed them
		// before this record surfaced): the leaf is quarantined — set
		// aside with its reason in the report's QuarantinedLeaves
		// section — rather than aborting the campaign or vanishing into
		// a bare counter. SkippedFailurePoints stays the superset
		// coverage count.
		res.SkippedFailurePoints++
		res.QuarantinedFailurePoints++
		m.rep.Quarantine(report.QuarantinedLeaf{
			LeafID:  leaf.ID,
			ICount:  leaf.FirstICount,
			Stack:   leaf.Stack,
			Reason:  rec.SkipReason,
			Retries: rec.Retries,
		})
		res.addInjectionError(fmt.Sprintf("failure point #%d (instruction %d): %s",
			leaf.ID, leaf.FirstICount, rec.SkipReason))
	case rec.TargetPanic || rec.TargetHang:
		// The sandbox stopped the replay before the failure point: the
		// leaf is consumed without an injection, and the behaviour is a
		// finding rather than an error sample.
		if rec.TargetPanic {
			res.TargetPanics++
		} else {
			res.TargetHangs++
		}
		res.SkippedFailurePoints++
	default:
		res.Injections++
		switch rec.Source {
		case campaign.Replayed:
			res.Recoveries++
		case campaign.Inherited:
			res.InheritedVerdicts++
		case campaign.Cached:
			res.PersistentCacheHits++
		}
		if rec.Verdict == oracle.Hung {
			res.RecoveryHangs++
		}
		// Folded journal records fill the memo too, so a resumed
		// campaign inherits across the resume boundary.
		m.remember(leaf, rec)
	}
	if f := leafFinding(leaf, rec); f != nil {
		m.rep.Add(*f)
	}
	m.consumed++
	if !m.folding {
		m.publish(rec)
	}
	if rec.Injected {
		m.noProgress = 0
		return false
	}
	if !m.cfg.StackMode {
		return false
	}
	m.noProgress++
	if m.noProgress >= maxNoProgress {
		res.InjectionAborted = true
		return true
	}
	return false
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
