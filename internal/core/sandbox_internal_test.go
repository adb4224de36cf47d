package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest/misbehave"
	"mumak/internal/apps/btree"
	"mumak/internal/bugs"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// TestSandboxDifferentialCleanTarget proves the sandbox is transparent:
// a target whose workload runs clean, analysed with the watchdogs armed,
// produces a report byte-identical to the pre-sandbox execution path,
// with equal counters. That holds for a recovery that panics too: both
// paths recover its panic through the sandbox's classifier and print the
// same target-only trace, although only the sandboxed one runs recovery
// on a goroutine of its own.
func TestSandboxDifferentialCleanTarget(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() harness.Application
		w    workload.Workload
	}{
		{"btree", func() harness.Application { return btree.New(cfgSeeded(btree.BugCountOutsideTx)) }, testWorkload()},
		{"recovery panic", func() harness.Application { return misbehave.NewMode(misbehave.RecoveryPanic) },
			workload.Generate(workload.Config{N: 10, Seed: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := Analyze(tc.mk(), tc.w, Config{KeepWarnings: true, unsandboxed: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Report.Bugs()) == 0 {
				t.Fatal("fixture produced no findings; the comparison is vacuous")
			}
			sandboxed, err := Analyze(tc.mk(), tc.w, Config{KeepWarnings: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sandboxed.Report.Format(true), plain.Report.Format(true); got != want {
				t.Errorf("sandbox perturbed the report:\n--- unsandboxed ---\n%s\n--- sandboxed ---\n%s", want, got)
			}
			if sandboxed.Injections != plain.Injections || sandboxed.Recoveries != plain.Recoveries ||
				sandboxed.SkippedFailurePoints != plain.SkippedFailurePoints ||
				sandboxed.EngineEvents != plain.EngineEvents {
				t.Errorf("sandbox perturbed counters: injections %d/%d recoveries %d/%d skipped %d/%d events %d/%d",
					sandboxed.Injections, plain.Injections, sandboxed.Recoveries, plain.Recoveries,
					sandboxed.SkippedFailurePoints, plain.SkippedFailurePoints,
					sandboxed.EngineEvents, plain.EngineEvents)
			}
			if sandboxed.TargetPanics != 0 || sandboxed.TargetHangs != 0 || sandboxed.RecoveryHangs != 0 {
				t.Errorf("sandbox intervened on a clean run: %d/%d/%d",
					sandboxed.TargetPanics, sandboxed.TargetHangs, sandboxed.RecoveryHangs)
			}
		})
	}
}

// passOne judges one leaf as a stack-mode campaign does: a pass over
// that one target freezes its image, or ends on its way there, and the
// oracle judges whatever image it froze.
func passOne(in *injector, leaf *fpt.Leaf) replayOutcome {
	var s slot
	in.passes([]*fpt.Leaf{leaf}, in.sb.interrupted, func(_ int, got slot) { s = got })
	in.finish(&s)
	return s.out
}

// TestReplayHonoursDeadlineMidReplay regresses the serial campaign's
// deadline blind spot: the budget used to be checked only between
// replays, so a single replay that never reached its failure point
// could overshoot it without bound. The engine now carries the campaign
// deadline as a wall-clock watchdog, cutting the replay from inside.
// Stack mode is the mode that replays.
func TestReplayHonoursDeadlineMidReplay(t *testing.T) {
	app := misbehave.NewMode(misbehave.HangRun)
	w := testWorkload()
	stacks := stack.NewTable()
	leaf := &fpt.Leaf{ID: 1, Stack: stacks.Intern([]uintptr{0x1}), FirstICount: 1 << 40}
	sb := sandboxCfg{
		budget:   1 << 40, // fuel cannot trip; only the deadline can
		timeout:  time.Second,
		deadline: time.Now().Add(100 * time.Millisecond),
	}
	start := time.Now()
	in := injector{app: app, w: w, stacks: stacks, cfg: Config{StackMode: true}, sb: sb}
	out := passOne(&in, leaf)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("replay ran %s past a 100ms deadline", elapsed)
	}
	if !out.deadlineHit {
		t.Fatalf("deadlineHit not set; outcome %+v", out)
	}
	if out.SkipReason != "" || leafFinding(leaf, out.Record) != nil {
		t.Fatalf("deadline cut must not masquerade as a skip or finding: %+v", out)
	}
}

// TestCampaignBudgetCutsHangingInstrumentedRun: a hanging phase-1 run
// under a wall-clock budget ends as TimedOut, not as a finding — the
// budget, not the target, stopped the analysis.
func TestCampaignBudgetCutsHangingInstrumentedRun(t *testing.T) {
	app := misbehave.NewMode(misbehave.HangRun)
	res, err := Analyze(app, testWorkload(), Config{Budget: 200 * time.Millisecond, HangBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("TimedOut not set after the budget cut the instrumented run")
	}
	if res.TargetHangs != 0 {
		t.Errorf("TargetHangs = %d; a budget cut must not be reported as a hang", res.TargetHangs)
	}
	if res.Report.CountByKind()[report.TargetCrash] != 0 {
		t.Error("budget expiry produced a TargetCrash finding")
	}
}

// flakyApp fails its first `failures` Run calls, then behaves normally —
// the transient-replay-failure scenario the retry logic targets.
type flakyApp struct {
	harness.Application
	failures int
	calls    int
}

func (a *flakyApp) Run(e *pmem.Engine, w workload.Workload) error {
	a.calls++
	if a.calls <= a.failures {
		return errors.New("transient replay failure")
	}
	return a.Application.Run(e, w)
}

// TestLeafRetryRecoversTransientFailure: one transient replay failure
// must cost one retry, not a skipped failure point. Stack mode is the
// mode that replays.
func TestLeafRetryRecoversTransientFailure(t *testing.T) {
	w := testWorkload()
	tree, stacks := buildTree(t, testTarget(), w)
	leaves := tree.LeavesByICount()
	// The last leaf lies inside Run, so the flaky failure is actually
	// exercised (early leaves crash during Setup, before Run).
	leaf := leaves[len(leaves)-1]
	flaky := &flakyApp{Application: testTarget(), failures: 1}
	cfg := Config{StackMode: true}
	in := injector{app: flaky, w: w, stacks: stacks, cfg: cfg, sb: cfg.sandbox(time.Time{})}
	out := passOne(&in, leaf)
	if out.Retries != 1 {
		t.Errorf("retries = %d, want 1", out.Retries)
	}
	if !out.Injected || out.SkipReason != "" {
		t.Errorf("retried replay did not inject: %+v", out)
	}
}

// stuckReplayApp is its wrapped target during the instrumented run,
// which buildTree drives with the target itself, and panics or loops on
// PM at the start of every replay's Run.
type stuckReplayApp struct {
	harness.Application
	hang bool
}

func (a stuckReplayApp) Run(e *pmem.Engine, _ workload.Workload) error {
	for a.hang {
		e.Load64(0)
	}
	panic("seeded replay panic")
}

// TestStoppedReplayIsRecordedNotRetried: a stack-mode replay the sandbox
// stops, because the target panicked or burnt its fuel, is never
// retried, and its record carries the target-crash finding: the
// instruction counter the run stopped at and the rendered panic or hang.
func TestStoppedReplayIsRecordedNotRetried(t *testing.T) {
	w := testWorkload()
	tree, stacks := buildTree(t, testTarget(), w)
	leaves := tree.LeavesByICount()
	// The last leaf lies inside Run, which the replay never reaches.
	leaf := leaves[len(leaves)-1]
	cfg := Config{StackMode: true, HangBudget: 1 << 20}
	for _, hang := range []bool{false, true} {
		in := injector{app: stuckReplayApp{testTarget(), hang}, w: w, stacks: stacks, cfg: cfg, sb: cfg.sandbox(time.Time{})}
		out := passOne(&in, leaf)
		if out.TargetPanic == hang || out.TargetHang != hang || out.Injected || out.SkipReason != "" || out.Retries != 0 {
			t.Errorf("hang=%v: stopped replay recorded as %+v", hang, out.Record)
		}
		want := "seeded replay panic"
		if hang {
			want = "budget of 1048576 PM events exhausted"
		}
		f := leafFinding(leaf, out.Record)
		if f == nil || f.Kind != report.TargetCrash || f.ICount == 0 || f.ICount != out.FindingICount ||
			f.Stack != leaf.Stack || !strings.Contains(f.Detail, want) {
			t.Errorf("hang=%v: finding %+v, want a target crash at the stopping instruction naming %q", hang, f, want)
		}
	}
}

// TestCampaignCountsRetries: the whole stack-mode campaign folds
// per-leaf retries into Result.RetriedFailurePoints and keeps full
// coverage.
func TestCampaignCountsRetries(t *testing.T) {
	w := testWorkload()
	tree, stacks := buildTree(t, testTarget(), w)
	rep := &report.Report{Target: "test", Tool: "test", Stacks: stacks}
	res := &Result{Report: rep}
	flaky := &flakyApp{Application: testTarget(), failures: 1}
	timedOut, err := injectTree(flaky, w, tree, Config{StackMode: true}, rep, res, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("unexpected timeout")
	}
	if res.RetriedFailurePoints != 1 {
		t.Errorf("RetriedFailurePoints = %d, want 1", res.RetriedFailurePoints)
	}
	if res.SkippedFailurePoints != 0 {
		t.Errorf("SkippedFailurePoints = %d; the transient failure should have been retried away", res.SkippedFailurePoints)
	}
	if res.Injections != tree.Len() {
		t.Errorf("Injections = %d, want full coverage of %d", res.Injections, tree.Len())
	}
}

// TestAnalyzeRecordsSandboxMetrics: Analyze folds its interventions into
// the run's Result.
func TestAnalyzeRecordsSandboxMetrics(t *testing.T) {
	app := misbehave.NewMode(misbehave.PanicRun)
	res, err := Analyze(app, testWorkload(), Config{HangBudget: 30000, RecoveryTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetPanics != 1 || res.TargetHangs != 0 || res.RecoveryHangs != 0 {
		t.Errorf("interventions = %d panics, %d hangs, %d recovery hangs; want 1, 0, 0",
			res.TargetPanics, res.TargetHangs, res.RecoveryHangs)
	}
}

// TestAnalyzeRecordsCampaignMetrics: every campaign records its shape —
// workers, injections, busy time — in its own Result.
func TestAnalyzeRecordsCampaignMetrics(t *testing.T) {
	counter, err := Analyze(testTarget(), testWorkload(), Config{DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if counter.CampaignWorkers != 1 || counter.Injections == 0 {
		t.Errorf("counter-mode campaign: %d workers, %d injections; want 1 worker, >0 injections",
			counter.CampaignWorkers, counter.Injections)
	}

	st, err := Analyze(testTarget(), testWorkload(),
		Config{StackMode: true, Workers: 4, DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.CampaignWorkers != 4 || st.Injections == 0 {
		t.Errorf("stack-mode campaign: %d workers, %d injections; want 4 workers, >0 injections",
			st.CampaignWorkers, st.Injections)
	}
	if st.WorkerBusy <= 0 || st.InjectTime <= 0 {
		t.Errorf("stack-mode campaign missing time accounting: busy=%v inject=%v", st.WorkerBusy, st.InjectTime)
	}

	// The campaign starts at most one worker per failure point, and the
	// result reports the workers that actually ran.
	clean, err := Analyze(misbehave.NewMode(misbehave.Clean), testWorkload(),
		Config{Workers: 64, DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := clean.Tree.Len(); want >= 64 || clean.CampaignWorkers != want {
		t.Errorf("64-worker campaign over %d failure points: CampaignWorkers = %d, want %d",
			want, clean.CampaignWorkers, want)
	}
}

// cfgSeeded mirrors the external-test helper: an SPT btree config with
// the given seeded bugs.
func cfgSeeded(ids ...bugs.ID) apps.Config {
	return apps.Config{SPT: true, PoolSize: 1 << 20, Bugs: bugs.Enable(ids...)}
}

// TestSandboxDefaultsNonPositiveRecoveryTimeout: a zero or negative
// recovery timeout is the default watchdog, never a recovery run without
// one, which would also escape the campaign budget.
func TestSandboxDefaultsNonPositiveRecoveryTimeout(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		if got := (Config{RecoveryTimeout: d}).sandbox(time.Time{}).timeout; got != DefaultRecoveryTimeout {
			t.Errorf("RecoveryTimeout %s gives a %s watchdog, want %s", d, got, DefaultRecoveryTimeout)
		}
	}
}
