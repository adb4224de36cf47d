// Package core implements Mumak itself: the analysis pipeline of Fig 1.
//
// Given only an application (the "binary") and a workload, the pipeline
//
//  1. instruments the PM instruction stream and runs the workload once,
//     producing the failure point tree and the PM access trace;
//  2. injects one fault per unique failure point, materialises the
//     graceful-crash (program-order prefix) image and asks the
//     application's own recovery procedure — the consistency oracle — to
//     accept or reject it;
//  3. analyses the trace in a single pass against the §4.2 misuse
//     patterns, catching the durability and performance bugs fault
//     injection cannot see;
//  4. merges both phases into a deduplicated report with complete code
//     paths.
//
// No annotations, library knowledge or application semantics are used
// anywhere: the design goal of the paper.
package core

import (
	"fmt"
	"time"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// Campaign sandbox defaults; Config.HangBudget and
// Config.RecoveryTimeout override them.
const (
	// DefaultHangBudget is the fuel budget of one target execution: the
	// number of PM instruction events after which the engine's watchdog
	// terminates the run as a suspected hang. It is deterministic (a
	// replay trips at the same event regardless of machine speed) and
	// far above any realistic single-execution event count.
	DefaultHangBudget uint64 = 1 << 28
	// DefaultRecoveryTimeout is the wall-clock watchdog on one
	// recovery-oracle invocation, catching recovery hangs that never
	// touch PM (and therefore never burn fuel).
	DefaultRecoveryTimeout = 30 * time.Second
)

// DefaultCheckpointInterval is unused by the analysis.
//
// Deprecated: counter-mode injections judge the crash images phase 1
// hands each failure point and record no checkpoints; the constant is
// kept only for callers that still reference it.
const DefaultCheckpointInterval = 65536

// DefaultImageCacheSize is unused.
//
// Deprecated: verdict reuse is Config.Classing alone; the constant is
// kept only for callers that still reference it.
const DefaultImageCacheSize = 4096

// Config tunes the analysis.
type Config struct {
	// Granularity selects the failure-point definition (§4.1);
	// GranPersistency is Mumak's default.
	Granularity fpt.Granularity
	// Budget bounds the wall-clock time of the whole analysis; zero
	// means unbounded. It plays the role of the paper's 12-hour limit.
	Budget time.Duration
	// DisableTraceAnalysis skips phase 3 (ablation benches).
	DisableTraceAnalysis bool
	// DisableFaultInjection skips phase 2 (ablation benches).
	DisableFaultInjection bool
	// StackMode makes the injector match call stacks instead of
	// instruction counters, for non-deterministic targets (§5).
	StackMode bool
	// Workers bounds the number of concurrent recovery checks in the
	// fault-injection campaign; 0 or 1 runs one worker. In counter mode
	// the workers judge the images phase 1 freezes while phase 1 runs
	// on beside them, and phase 1 holds one of the Workers slots while
	// it runs (max(Workers-1, 1) checks run beside it); in stack mode
	// they judge those the pass freezes after phase 1, which runs as
	// one more goroutine beside them. Checks are independent (a leaf
	// and its image never change once the builder hands them over), and
	// findings are merged in leaf first-occurrence order after phase 1,
	// so the report is byte-identical for any worker count.
	Workers int
	// KeepWarnings makes the analyzer build §4.2 warnings and the
	// report keep them (they are always excluded from bug counts).
	KeepWarnings bool
	// EADR analyses the target under an extended persistence domain
	// (§4.3): fault injection is unchanged — the reported atomicity
	// and ordering bugs would still occur on an eADR system — but the
	// trace-analysis patterns flip: unflushed stores are fine, and
	// every cache flush is a performance bug.
	EADR bool
	// HangBudget overrides DefaultHangBudget: the per-execution PM
	// event fuel budget after which a run is terminated as a suspected
	// hang (0 = default).
	HangBudget uint64
	// RecoveryTimeout overrides DefaultRecoveryTimeout: the wall-clock
	// watchdog on each recovery-oracle invocation (zero or negative =
	// default). The campaign deadline caps it further when less budget
	// remains.
	RecoveryTimeout time.Duration
	// ImageCacheSize is ignored.
	//
	// Deprecated: verdict reuse is Classing alone; the field is kept
	// only for callers that still set it.
	ImageCacheSize int
	// Classing is the one verdict-reuse switch. On, the instrumented run
	// stamps every failure point with the content hash of its
	// prospective graceful-crash image (folded on demand from the pages
	// written since the previous stamp), and the campaign groups leaves
	// whose stamps match into equivalence classes (Result.EquivClasses).
	// In counter mode it then judges one leaf per class, and the other
	// members inherit its verdict from the campaign's verdict memo
	// without a recovery run; WarmVerdicts seed that memo. Stack mode
	// reuses no verdict: its pass freezes images of its own, which match
	// the stamps only for targets that run the same way twice, so it
	// judges every one. Reports are byte-identical either way (any
	// worker count) — only the redundant recoveries are skipped. Off,
	// nothing is reused: every failure point is judged on its own image,
	// which is the reference the differential tests compare against. The
	// zero value is off; the CLI always turns it on.
	Classing bool
	// WarmVerdicts seeds the verdict memo from a persistent cross-run
	// cache file (campaign.LoadVerdictCache) before phase 1 runs, so
	// re-runs of an identical campaign only judge classes whose image
	// hash was never judged. Ignored without Classing and in stack mode.
	WarmVerdicts []campaign.CacheEntry
	// PersistVerdicts exports the final verdict memo, sorted by key,
	// into Result.VerdictCache so the caller can persist it
	// (campaign.SaveVerdictCache) for the next run. Without Classing,
	// and in stack mode, there is no memo and nothing is exported.
	PersistVerdicts bool
	// Interrupt, when non-nil, requests graceful interruption once
	// closed: campaign workers stop taking failure points, a stack-mode
	// pass halts at its next failure-point candidate, in-flight recovery
	// checks drain (and are consumed and journaled), and the analysis
	// returns a partial report marked Interrupted. No leaf is consumed
	// from a cut execution, so every consumed outcome is exactly what
	// an uninterrupted run would have produced — which is what makes a
	// resumed campaign's final report byte-identical.
	Interrupt <-chan struct{}
	// Journal, when non-nil, durably records every consumed failure
	// point's verdict (append-only, fsync'd, checksummed), making the
	// campaign crash-safe: a run killed at any byte resumes from the
	// journal's loadable prefix. The records campaign.Open loaded into
	// it are folded before any replay executes: phase 1 rebuilds the
	// (deterministic) failure point tree, the journaled verdicts are
	// merged in leaf first-occurrence order, and the campaign continues
	// from the first unexplored failure point. Analyze errors when the
	// journal does not match this run's tree (different target,
	// workload or flags). Journal write failures degrade the run to
	// unjournaled (Result.JournalError) instead of aborting it.
	Journal *campaign.Journal
	// CheckpointInterval is ignored.
	//
	// Deprecated: counter-mode injections judge the crash images phase 1
	// hands each failure point and record no checkpoints; the field is
	// kept only for callers that still set it.
	CheckpointInterval int
	// unsandboxed restores the pre-sandbox execution path — a panic of
	// the target's workload propagates, and no watchdogs run. It exists
	// only so package-internal differential tests can prove the sandbox
	// leaves reports byte-identical.
	unsandboxed bool
}

// Result is the outcome of one analysis.
type Result struct {
	// Report holds the merged findings.
	Report *report.Report
	// Tree is the failure point tree of the run, frozen once the
	// injection campaign started. The campaign consumes its leaves in
	// LeavesByICount order, so its progress is the first
	// Injections + SkippedFailurePoints of them, however it stopped;
	// the journal (Config.Journal) records that prefix.
	Tree *fpt.Tree
	// CampaignWorkers is the worker count the injection campaign
	// actually ran with: Config.Workers, at least 1, but never more
	// than the failure points handed to workers (zero when fault
	// injection was disabled or no leaf was handed to a worker).
	CampaignWorkers int
	// WorkerBusy sums the wall time the campaign spent executing: the
	// workers' recovery checks, those that ran during phase 1 included,
	// and, in stack mode, the pass's re-execution of the target, but not
	// a worker's wait for the pass to freeze its image. PoolTime is the
	// worker pool's lifetime, from its first worker's start to the end
	// of the campaign, so WorkerBusy/PoolTime is the campaign's average
	// utilisation; in stack mode it can exceed the worker count by up to
	// one.
	WorkerBusy time.Duration
	PoolTime   time.Duration
	// EarlyRecoveries counts the Recoveries whose recovery check
	// finished before phase 1 ended, beside it (counter mode only). Like WorkerBusy it depends on scheduling, so
	// it is kept out of the JSON report.
	EarlyRecoveries int
	// TraceLen is the number of trace records analysed (none under
	// DisableTraceAnalysis).
	TraceLen int
	// Injections is the number of faults injected.
	Injections int
	// Recoveries is the number of recovery-oracle invocations: one per
	// replayed injection. Inherited and cached verdicts are delivered
	// without one.
	Recoveries int
	// SkippedFailurePoints counts failure points consumed without an
	// injection: the stack-mode pass heading for one errored, ended
	// without re-encountering its call stack, or was stopped by the
	// sandbox. A non-zero value means campaign coverage is below one
	// fault per unique failure point. The errored and unmatched ones are
	// quarantined into Report.Quarantined once their bounded retries are
	// exhausted; the stopped ones are findings (TargetPanics,
	// TargetHangs).
	SkippedFailurePoints int
	// InjectionAborted reports that the stack-mode campaign gave up
	// after too many consecutive failure points were consumed without
	// an injection.
	InjectionAborted bool
	// RetriedFailurePoints counts the extra stack-mode passes started
	// from leaves a pass failed to reach with a transient skip (an
	// errored execution, a call stack never re-encountered).
	RetriedFailurePoints int
	// TargetPanics counts executions the sandbox stopped because the
	// target's own code panicked; each produced a TargetCrash finding.
	TargetPanics int
	// TargetHangs counts executions the hang watchdog terminated after
	// the fuel budget was exhausted; each produced a TargetCrash
	// finding.
	TargetHangs int
	// RecoveryHangs counts recovery-oracle invocations the watchdog
	// classified as non-terminating; each produced a RecoveryHang
	// finding.
	RecoveryHangs int
	// EquivClasses is the number of distinct crash-image equivalence
	// classes the phase-1 stamps partitioned the failure points into
	// (zero when classing was off), in both modes. InheritedVerdicts
	// counts class members that took their class's verdict without a
	// recovery run, and PersistentCacheHits counts class representatives
	// that took the verdict of a cross-run verdict-cache file
	// (Config.WarmVerdicts) without one; both stay zero in stack mode,
	// which reuses no verdict. Recoveries + InheritedVerdicts +
	// PersistentCacheHits is the recovery count of the same campaign
	// without reuse. These counters are deliberately kept out of the
	// JSON report so classed and unclassed reports stay byte-identical.
	EquivClasses        int
	InheritedVerdicts   int
	PersistentCacheHits int
	// VerdictCache is the campaign's final verdict memo, sorted by key,
	// filled only when Config.PersistVerdicts asked for it; pass it to
	// campaign.SaveVerdictCache to warm the next run.
	VerdictCache []campaign.CacheEntry
	// AnalyzerPeakLines is the number of cache lines the online analyzer
	// tracked: every line the execution touched, since it never drops
	// one (zero when trace analysis was disabled).
	AnalyzerPeakLines int
	// AnalyzerPeakStateBytes is the online analyzer's peak approximate
	// resident state; it stays proportional to the cache lines touched
	// rather than trace length.
	AnalyzerPeakStateBytes uint64
	// Elapsed is the total analysis wall time; the phase fields break
	// it down. InjectTime is the wall time from the end of phase 1 to
	// the end of the campaign: in counter mode the recovery checks that
	// ran beside phase 1 are in InstrumentTime, and InjectTime is the
	// tail the campaign needs after it.
	Elapsed        time.Duration
	InstrumentTime time.Duration
	InjectTime     time.Duration
	AnalysisTime   time.Duration
	// TimedOut reports whether the budget expired before completion.
	TimedOut bool
	// Interrupted reports that a graceful-interruption request
	// (Config.Interrupt) stopped the campaign before every failure
	// point was consumed; the report is partial and marked accordingly.
	Interrupted bool
	// ResumedFailurePoints counts failure points whose verdicts were
	// folded from a resumed campaign journal instead of replayed.
	ResumedFailurePoints int
	// JournalAppends counts the durable journal records this run wrote;
	// JournalError is the first journal write failure (after which the
	// run degraded to unjournaled), empty when journaling worked or was
	// off.
	JournalAppends int
	JournalError   string
	// EngineEvents sums the PM instruction events of phase 1 and of
	// each consumed leaf's execution prefix: none in counter mode, and
	// in stack mode the crash counter at which its image froze plus the
	// events of its failed attempts (campaign.Record.Events).
	// One pass shares one prefix among all the leaves it serves, so in
	// stack mode this is not the count of instructions executed; it is
	// the count a campaign replaying each leaf on its own would execute.
	EngineEvents uint64
}

// Analyze runs the full Mumak pipeline on the target.
func Analyze(app harness.Application, w workload.Workload, cfg Config) (*Result, error) {
	start := time.Now()
	deadline := time.Time{}
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}
	res := &Result{}
	stacks := stack.NewTable()
	rep := &report.Report{Target: app.Name(), Tool: "Mumak", Stacks: stacks}
	res.Report = rep

	// Phase 1: instrumented run -> failure point tree + online trace
	// analysis. The §4.2 analyzer consumes the instruction stream as the
	// workload executes, so the trace is never materialised: resident
	// state is proportional to the cache lines touched, not trace
	// length. Stacks are walked only where the builder asks
	// (failure-point candidates); the analyzer's findings get theirs in
	// phase 3.
	tree := fpt.New(stacks)
	builder := fpt.NewBuilder(tree, cfg.Granularity)
	hooks := []pmem.Hook{builder}
	// Without trace analysis the builder is the only hook: nothing
	// counts events, so TraceLen stays zero and a fault-injection-only
	// ablation measures fault injection alone.
	var analyzer *Analyzer
	if !cfg.DisableTraceAnalysis {
		analyzer = NewAnalyzer(cfg)
		hooks = append(hooks, analyzer)
	}
	sb := cfg.sandbox(deadline)
	t0 := time.Now()
	opts := pmem.Options{Capture: cfg.capture(), Stacks: stacks}
	// A counter-mode campaign judges each failure point's graceful-crash
	// image, which the builder freezes from the engine's coherent view
	// as the leaf is created: hooks see an event before its mutation
	// applies, so that image is exactly the state a replay crashed at the
	// leaf's counter would reach, and no replay runs at all. The
	// builder hands each leaf over as it creates it, so the campaign's
	// workers judge images while phase 1 runs on. Stack mode keeps no
	// phase-1 images: its pass re-executes the target after phase 1 and
	// freezes them there.
	var camp *mergeState
	if !cfg.DisableFaultInjection {
		builder.KeepImages = !cfg.StackMode
		camp = newCampaign(app, w, stacks, cfg, rep, res, sb)
		builder.OnLeaf = camp.offer
		// No worker outlives Analyze, whatever the exit.
		defer camp.pool.stop()
	}
	eng, sout := execute(app, w, opts, sb, hooks...)
	res.EngineEvents += eng.Events()
	switch {
	case sout.Err != nil:
		return nil, fmt.Errorf("instrumented run: %w", sout.Err)
	case sout.Sig != nil:
		return nil, fmt.Errorf("instrumented run crashed unexpectedly: %v", sout.Sig)
	case sout.Panic != nil:
		// The target itself is broken. Report the crash as a finding
		// and continue the pipeline over the partial failure point tree
		// and trace: the bugs found up to the panic are still bugs.
		res.TargetPanics++
		rep.Add(report.Finding{
			Kind:   report.TargetCrash,
			ICount: eng.ICount(),
			Detail: panicDetail("the instrumented run", sout.Panic),
		})
	case sout.Hang != nil:
		if sout.Hang.Deadline {
			// The campaign deadline, not target behaviour, cut the run.
			res.TimedOut = true
		} else {
			res.TargetHangs++
			rep.Add(report.Finding{
				Kind:   report.TargetCrash,
				ICount: eng.ICount(),
				Detail: hangDetail("the instrumented run", sout.Hang),
			})
		}
	}
	res.InstrumentTime = time.Since(t0)
	res.Tree = tree
	if analyzer != nil {
		res.TraceLen = analyzer.Events()
	}

	// Phase 2: fault injection with the recovery oracle, over the tree
	// and its leaf images, both frozen from here on and shared read-only
	// across campaign workers, which in counter mode have been judging
	// since phase 1 handed them their first leaf.
	if camp != nil {
		t0 = time.Now()
		timedOut, err := injectAll(tree, camp)
		if err != nil {
			return nil, fmt.Errorf("fault injection: %w", err)
		}
		res.TimedOut = timedOut || res.TimedOut
		res.InjectTime = time.Since(t0)
	}

	// Phase 3: finalise the single-pass trace analysis (the per-event
	// work already ran inline with phase 1; the analyzer built no warning
	// the report leaves out) and resolve stacks for its findings.
	if analyzer != nil {
		t0 = time.Now()
		findings := analyzer.Finalize()
		resolveStacks(app, w, stacks, findings, sb)
		for _, f := range findings {
			rep.Add(*f)
		}
		res.AnalyzerPeakLines = analyzer.PeakLiveLines()
		res.AnalyzerPeakStateBytes = analyzer.PeakStateBytes()
		res.AnalysisTime = time.Since(t0)
	}

	// Partial-report markers: a budget expiry or a graceful interruption
	// renders an explicit trailer so a cut-short report can never pass
	// for a complete one.
	rep.Interrupted = res.Interrupted
	rep.BudgetExhausted = res.TimedOut

	res.Elapsed = time.Since(start)
	return res, nil
}
