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
	// Workers bounds the number of concurrent injections in the
	// fault-injection campaign — recovery checks of phase-1 images in
	// counter mode, replays in stack mode; 0 or 1 runs one worker.
	// Injections are independent (the failure point tree is frozen
	// before the campaign and shared read-only), and findings are merged
	// in leaf first-occurrence order, so the report is byte-identical
	// for any worker count.
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
	// watchdog on each recovery-oracle invocation (0 = default). The
	// campaign deadline caps it further when less budget remains.
	RecoveryTimeout time.Duration
	// ImageCacheSize is ignored.
	//
	// Deprecated: verdict reuse is Classing alone; the field is kept
	// only for callers that still set it.
	ImageCacheSize int
	// Classing is the one verdict-reuse switch. On, the instrumented run
	// stamps every failure point with the content hash of its
	// prospective graceful-crash image (folded on demand from the pages
	// written since the previous stamp), the campaign groups leaves
	// whose stamps match into equivalence classes, judges one leaf per
	// class, and the other members inherit its verdict from the
	// campaign's verdict memo without a recovery run (or, in stack mode,
	// a replay); WarmVerdicts seed that memo. Reports are byte-identical
	// either way (any worker count, counter and stack mode) — only the
	// redundant replays and recoveries are skipped. Off, nothing is
	// reused: every failure point is judged on its own image, which is
	// the reference the differential tests compare against and the mode
	// for targets whose execution or recovery is not deterministic. The
	// zero value is off; the CLI enables it by default.
	Classing bool
	// WarmVerdicts seeds the verdict memo from a persistent cross-run
	// cache file (campaign.LoadVerdictCache) before any replay runs, so
	// re-runs of an identical campaign only replay classes whose image
	// hash was never judged. Ignored without Classing.
	WarmVerdicts []campaign.CacheEntry
	// PersistVerdicts exports the final verdict memo, sorted by key,
	// into Result.VerdictCache so the caller can persist it
	// (campaign.SaveVerdictCache) for the next run. Without Classing
	// there is no memo and nothing is exported.
	PersistVerdicts bool
	// Interrupt, when non-nil, requests graceful interruption once
	// closed: campaign workers stop taking failure points, in-flight
	// replays drain (and are consumed and journaled), and the analysis
	// returns a partial report marked Interrupted. The channel is
	// polled between leaves, so every consumed outcome is exactly what
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
	// unsandboxed restores the pre-sandbox execution path — target
	// panics propagate and no watchdogs run. It exists only so
	// package-internal differential tests can prove the sandbox leaves
	// clean-target reports byte-identical.
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
	// than the failure points left to inject (zero when fault injection
	// was disabled or the campaign stopped before it started).
	CampaignWorkers int
	// WorkerBusy sums the wall time campaign workers spent replaying;
	// WorkerBusy/InjectTime is the campaign's average worker
	// utilisation.
	WorkerBusy time.Duration
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
	// injection: a stack-mode replay errored or never re-encountered the
	// target call stack, or the sandbox stopped it. A non-zero value
	// means campaign coverage is below one fault per unique failure
	// point. The errored and unmatched replays are quarantined into
	// Report.Quarantined once their bounded retries are exhausted; the
	// stopped ones are findings (TargetPanics, TargetHangs).
	SkippedFailurePoints int
	// InjectionAborted reports that the stack-mode campaign gave up
	// after too many consecutive failure points were consumed without
	// an injection.
	InjectionAborted bool
	// RetriedFailurePoints counts the extra replay attempts spent on
	// leaves whose first replay was consumed by a transient skip
	// (errored replay, counter never reached, stack never
	// re-encountered).
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
	// (zero when classing was off). InheritedVerdicts counts class
	// members that took their class's verdict without replaying, and
	// PersistentCacheHits counts class representatives that took the
	// verdict of a cross-run verdict-cache file (Config.WarmVerdicts)
	// without replaying. Recoveries + InheritedVerdicts +
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
	// AnalyzerPeakLines is the online analyzer's peak number of
	// simultaneously tracked cache lines (zero when trace analysis was
	// disabled).
	AnalyzerPeakLines int
	// AnalyzerPeakStateBytes is the online analyzer's peak approximate
	// resident state; it stays proportional to live cache lines rather
	// than trace length.
	AnalyzerPeakStateBytes uint64
	// Elapsed is the total analysis wall time; the phase fields break
	// it down.
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
	// EngineEvents counts simulated PM instructions across all runs.
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
	// state is proportional to live cache lines, not trace length. Stacks
	// are walked only where the builder asks (failure-point candidates);
	// the analyzer's findings get theirs in phase 3.
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
	if !sb.disabled {
		opts.MaxEvents = sb.budget
		opts.Deadline = sb.deadline
	}
	// A counter-mode campaign judges each failure point's graceful-crash
	// image, which the builder freezes from the engine's coherent view
	// as the leaf is created: hooks see an event before its mutation
	// applies, so that image is exactly the state a replay crashed at the
	// leaf's counter would reach, and no replay runs at all. Stack mode
	// keeps no images, since its replays re-execute the target.
	if !cfg.DisableFaultInjection {
		builder.KeepImages = !cfg.StackMode
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
			Stack:  stack.NoID,
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
				Stack:  stack.NoID,
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
	// across campaign workers.
	if !cfg.DisableFaultInjection {
		t0 = time.Now()
		timedOut, err := injectAll(app, w, tree, cfg, rep, res, deadline)
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
