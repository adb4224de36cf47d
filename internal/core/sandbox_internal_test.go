package core

import (
	"errors"
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
// a clean target analysed with the watchdogs armed produces a report
// byte-identical to the pre-sandbox execution path, with equal counters.
func TestSandboxDifferentialCleanTarget(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSeeded(btree.BugCountOutsideTx)) }
	w := testWorkload()
	plain, err := Analyze(mk(), w, Config{KeepWarnings: true, unsandboxed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Report.Bugs()) == 0 {
		t.Fatal("fixture produced no findings; the comparison is vacuous")
	}
	sandboxed, err := Analyze(mk(), w, Config{KeepWarnings: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sandboxed.Report.Format(true), plain.Report.Format(true); got != want {
		t.Errorf("sandbox perturbed a clean-target report:\n--- unsandboxed ---\n%s\n--- sandboxed ---\n%s", want, got)
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
		t.Errorf("sandbox intervened on a clean target: %d/%d/%d",
			sandboxed.TargetPanics, sandboxed.TargetHangs, sandboxed.RecoveryHangs)
	}
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
	out := replayLeaf(app, w, leaf, stacks, Config{StackMode: true}.campaignMode(), sb)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("replay ran %s past a 100ms deadline", elapsed)
	}
	if !out.deadlineHit {
		t.Fatalf("deadlineHit not set; outcome %+v", out)
	}
	if out.skipReason != "" || out.finding != nil {
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
	out := replayLeafWithRetry(flaky, w, leaf, stacks, cfg.campaignMode(), cfg.sandbox(time.Time{}))
	if out.retries != 1 {
		t.Errorf("retries = %d, want 1", out.retries)
	}
	if !out.injected || out.skipReason != "" {
		t.Errorf("retried replay did not inject: %+v", out)
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
	timedOut, err := injectAll(flaky, w, tree, Config{StackMode: true}, rep, res, time.Time{})
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
}

// cfgSeeded mirrors the external-test helper: an SPT btree config with
// the given seeded bugs.
func cfgSeeded(ids ...bugs.ID) apps.Config {
	return apps.Config{SPT: true, PoolSize: 1 << 20, Bugs: bugs.Enable(ids...)}
}
