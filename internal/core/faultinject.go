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
// injection (the pass heading for the leaf errored, panicked, hung, or
// never re-encountered its call stack). With a deterministic target one
// such failure usually implies every later leaf fails the same way, and
// each of them costs a new pass that re-runs the workload from the
// start, so grinding through thousands of doomed passes would waste the
// entire budget. A small bound aborts the campaign instead while still
// tolerating the occasional non-deterministic hiccup stack mode exists
// to serve. Counter mode re-executes nothing, so it has nothing to
// abort.
const maxNoProgress = 3

// maxLeafRetries bounds the new passes started from a leaf consumed with
// a transient skip (an errored execution, a call stack never
// re-encountered), instead of giving up on the first hiccup.
// Deterministic targets converge to the same skip, so the bound costs at
// most two extra passes per genuinely dead leaf.
const maxLeafRetries = 2

// retryBackoff is the base pause between a leaf's passes; retry k waits
// k×retryBackoff, giving a transient condition a moment to clear without
// slowing a deterministic failure down meaningfully.
const retryBackoff = time.Millisecond

// sandboxCfg carries the per-execution watchdog bounds of one campaign:
// the deterministic fuel budget, the recovery wall-clock timeout, and
// the campaign deadline (honoured mid-pass through the engine's
// wall-clock watchdog, not just between leaves).
type sandboxCfg struct {
	budget   uint64
	timeout  time.Duration
	deadline time.Time
	// interrupt polls the graceful-interruption request (nil when none
	// was configured). Workers poll it before judging a leaf and a
	// stack-mode pass at every failure-point candidate; an in-flight
	// recovery check drains to completion, and a halted pass hands its
	// unserved leaves back unexecuted, so every consumed leaf's outcome
	// — and its journal record — is exactly what an uninterrupted run
	// would have produced.
	interrupt func() bool
	// disabled restores the pre-sandbox execution path (workload
	// panics propagate, no watchdogs); reachable only from
	// package-internal differential tests proving the sandbox does not
	// perturb reports.
	disabled bool
}

// interrupted polls the graceful-interruption request.
func (sb sandboxCfg) interrupted() bool {
	return sb.interrupt != nil && sb.interrupt()
}

// expired reports whether the campaign deadline has passed.
func (sb sandboxCfg) expired() bool {
	return !sb.deadline.IsZero() && !time.Now().Before(sb.deadline)
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
	if sb.timeout <= 0 {
		sb.timeout = DefaultRecoveryTimeout
	}
	return sb
}

// capture is the stack-capture class of the configured granularity:
// the call stacks of persistency instructions, or of every store at
// store granularity. Phase 1 captures them for the failure point tree;
// a stack-mode pass captures them to match its leaves.
func (cfg Config) capture() pmem.StackCapture {
	if cfg.Granularity == fpt.GranStore {
		return pmem.CaptureStores
	}
	return pmem.CapturePersistency
}

// execute runs one target execution under the campaign sandbox, with
// the campaign's fuel budget and deadline as the engine's watchdogs, or
// the strict pre-sandbox path without them when differential testing
// disabled it. Every execution gets the full fuel budget: neither phase
// 1, a stack-mode pass nor the debug-information pass has a
// deterministic crash counter to bound it by.
func execute(app harness.Application, w workload.Workload, opts pmem.Options,
	sb sandboxCfg, hooks ...pmem.Hook) (*pmem.Engine, harness.Outcome) {

	if sb.disabled {
		eng, sig, err := harness.Execute(app, w, opts, hooks...)
		return eng, harness.Outcome{Sig: sig, Err: err}
	}
	opts.MaxEvents, opts.Deadline = sb.budget, sb.deadline
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

// newCampaign prepares the fault-injection campaign before phase 1
// runs: the injector, the merge state with its verdict memo seeded from
// cfg.WarmVerdicts, the class plan phase 1's builder applies to each
// new leaf (offer), and the worker pool of max(cfg.Workers, 1), which
// starts a worker with each leaf handed to it up to its limit. The
// caller stops the pool on every exit path.
func newCampaign(app harness.Application, w workload.Workload, stacks *stack.Table,
	cfg Config, rep *report.Report, res *Result, sb sandboxCfg) *mergeState {

	in := &injector{app: app, w: w, stacks: stacks, cfg: cfg, sb: sb}
	m := &mergeState{cfg: cfg, rep: rep, res: res, journal: cfg.Journal,
		replayer: in.inject, pool: newPool(in, max(cfg.Workers, 1))}
	if cfg.Journal != nil {
		m.plan.folded = len(cfg.Journal.Records)
	}
	if cfg.Classing {
		// One memo per campaign: application, workload and recovery
		// configuration are fixed here (and pinned by the verdict-cache
		// file's identity), so entries are keyed by image identity alone.
		m.memo = make(map[imageKey]campaign.Judgement, len(cfg.WarmVerdicts))
		for _, e := range cfg.WarmVerdicts {
			m.memo[imageKey{hash: e.Hash, size: e.Size}] = e.Judgement
		}
		m.plan.reps = make(map[imageKey]int)
		m.plan.atMerge = make(map[int]bool)
	}
	return m
}

// offer is the builder's hand-off (fpt.Builder.OnLeaf): phase 1 calls it
// with every new leaf, stamped and, in counter mode, carrying its
// image, in LeavesByICount order. A counter-mode leaf the class plan
// gives a worker is judged while phase 1 runs on; a stack-mode one
// waits for the pass after phase 1.
func (m *mergeState) offer(leaf *fpt.Leaf) {
	if m.plan.add(leaf, m.memo) && !m.cfg.StackMode {
		m.pool.add(phase1(leaf), nil)
	}
}

// injectAll completes the campaign once phase 1 has ended: it injects
// one fault per unique failure point of the (now frozen) tree (steps
// 7-9 of Fig 1) and reports every crash state the recovery oracle
// rejects. It returns whether the deadline expired first.
//
// In the default counter mode each leaf's crash state is the image
// phase 1 froze at its recorded first-occurrence instruction counter —
// the §5 optimisation that works because the target is deterministic —
// so an injection is one recovery check and no re-execution, and the
// pool has been judging those images since phase 1 handed them over.
// In stack mode one pass re-executes the target and freezes each leaf's
// image at the first failure-point event whose call stack matches it
// (pass.go), which needs a stack walk at every failure-point candidate
// but tolerates non-determinism. Either way the recovery checks are
// independent (each builds a private recovery engine over a frozen
// image), so every campaign judges on the one worker pool, with
// max(cfg.Workers, 1) workers but never more than the leaves handed to
// it, and a stack-mode pass runs beside them. With cfg.Classing only
// the first leaf of each crash-image class without a verdict is judged;
// the rest resolve from the campaign's verdict memo at merge
// (classing.go).
//
// Leaves are consumed strictly in tree.LeavesByICount() order, so
// however the campaign stops — completion, budget, interruption,
// abort — its progress is a prefix of that order, of length
// Injections + SkippedFailurePoints. That length is the only progress
// state: the work list is the order past any folded journal prefix.
//
// Every pass and recovery runs inside the sandbox: a foreign panic or
// a watchdog kill becomes a TargetCrash or RecoveryHang finding instead
// of crashing or stalling the tool.
//
// With a journal configured (cfg.Journal) the records it already holds
// are folded through the merge step first — nothing re-executes, and
// no worker judged their leaves — and the campaign continues from the
// first unexplored leaf, durably recording every consumed leaf before
// the next is folded. The only returned error is a resume mismatch: a
// journal recorded under a different target, workload or injection
// mode. injectAll stops the pool before it returns.
func injectAll(tree *fpt.Tree, m *mergeState) (timedOut bool, err error) {
	cfg, res, p := m.cfg, m.res, m.pool
	p.beside.Store(false)
	late := p.in.sb.expired()
	tree.Freeze()
	order := tree.LeavesByICount()
	defer func() {
		p.stop()
		res.CampaignWorkers = p.started
		res.WorkerBusy += time.Duration(p.busy.Load())
		if p.started > 0 {
			res.PoolTime = time.Since(p.begin)
		}
		if cfg.PersistVerdicts && m.memo != nil {
			res.VerdictCache = exportMemo(m.memo)
		}
	}()

	aborted := false
	if cfg.Journal != nil {
		// Fold the journaled verdicts, which also seeds the memo.
		if aborted, err = m.fold(cfg.Journal.Records, order); err != nil {
			return false, err
		}
	}
	res.EquivClasses = len(m.plan.reps)
	if aborted {
		return false, nil
	}
	if p.in.sb.interrupted() {
		res.Interrupted = true
		return false, nil
	}
	return injectParallel(m, order[m.consumed:], late), nil
}

// replayOutcome is the result of injecting one leaf: the leaf's journal
// record, which carries everything the merge step needs, so that
// injections can run on any goroutine while the shared Result and Report
// are only ever touched in deterministic leaf order.
type replayOutcome struct {
	// executed is false when the injection never ran (deadline
	// expired or interruption requested).
	executed bool
	// deadlineHit reports that the campaign deadline cut the pass or
	// the recovery mid-flight; the leaf stays unconsumed and the
	// campaign stops, exactly as if the deadline had expired between
	// leaves.
	deadlineHit bool
	campaign.Record
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

	// memo is the campaign's verdict memo (nil when classing is off)
	// and plan its schedule (classing.go). Only the merge goroutine
	// touches memo. replayer runs one live injection on the merge
	// goroutine (the campaign's injector.inject). pool judges the
	// leaves the plan gives workers.
	memo     map[imageKey]campaign.Judgement
	plan     classPlan
	replayer func(*fpt.Leaf) replayOutcome
	pool     *pool

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
		// Every retry was spent (the pass consumed them before this
		// record surfaced): the leaf is quarantined — set
		// aside with its reason in the report's Quarantined section —
		// rather than aborting the campaign or vanishing into a bare
		// counter. SkippedFailurePoints stays the superset coverage
		// count.
		res.SkippedFailurePoints++
		m.rep.Quarantine(report.QuarantinedLeaf{
			LeafID:  leaf.ID,
			ICount:  leaf.FirstICount,
			Stack:   leaf.Stack,
			Reason:  rec.SkipReason,
			Retries: rec.Retries,
		})
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
