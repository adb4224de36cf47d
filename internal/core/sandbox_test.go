package core_test

import (
	"strings"
	"testing"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest/misbehave"
	"mumak/internal/apps/btree"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/pmdk"
	"mumak/internal/report"
	"mumak/internal/workload"
)

// sandboxConfig bounds the watchdogs tightly so the misbehave fixtures'
// infinite loops are cut within milliseconds rather than at the
// production defaults.
func sandboxConfig(workers int) core.Config {
	return core.Config{
		Workers:         workers,
		HangBudget:      30000,
		RecoveryTimeout: 2 * time.Second,
	}
}

func fixture(t *testing.T, name string) harness.Application {
	t.Helper()
	app, ok := misbehave.New(name)
	if !ok {
		t.Fatalf("fixture %q not registered", name)
	}
	return app
}

// The fixtures ignore the workload; a tiny one keeps intent obvious.
func fixtureWorkload() workload.Workload {
	return workload.Generate(workload.Config{N: 10, Seed: 1})
}

// TestCampaignSurvivesPanickingRun is the acceptance scenario for panic
// isolation: a target whose Run panics must not crash the campaign —
// serially or across a worker pool (exercised under -race) — and the
// panic must surface as a TargetCrash finding.
func TestCampaignSurvivesPanickingRun(t *testing.T) {
	for _, workers := range []int{1, 8} {
		res, err := core.Analyze(fixture(t, "misbehave-run-panic"), fixtureWorkload(), sandboxConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.TargetPanics != 1 {
			t.Errorf("workers=%d: TargetPanics = %d, want 1", workers, res.TargetPanics)
		}
		if res.Report.CountByKind()[report.TargetCrash] == 0 {
			t.Errorf("workers=%d: no TargetCrash finding reported", workers)
		}
		if res.Injections == 0 {
			t.Errorf("workers=%d: campaign injected nothing; it should continue past the panic", workers)
		}
		found := false
		for _, f := range res.Report.Bugs() {
			if f.Kind == report.TargetCrash && strings.Contains(f.Detail, "seeded target panic") {
				found = true
			}
		}
		if !found {
			t.Errorf("workers=%d: TargetCrash finding lacks the panic value", workers)
		}
	}
}

// TestCampaignSurvivesHangingRun: a Run that never terminates is cut by
// the fuel watchdog and reported, and the campaign still completes the
// failure points recorded before the hang.
func TestCampaignSurvivesHangingRun(t *testing.T) {
	for _, workers := range []int{1, 8} {
		res, err := core.Analyze(fixture(t, "misbehave-run-hang"), fixtureWorkload(), sandboxConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.TargetHangs == 0 {
			t.Errorf("workers=%d: TargetHangs = 0, want the watchdog kill counted", workers)
		}
		if res.Report.CountByKind()[report.TargetCrash] == 0 {
			t.Errorf("workers=%d: no TargetCrash finding for the hang", workers)
		}
		if res.Injections == 0 {
			t.Errorf("workers=%d: campaign injected nothing despite pre-hang failure points", workers)
		}
		if res.TimedOut {
			t.Errorf("workers=%d: fuel kill misreported as budget expiry", workers)
		}
	}
}

// TestCampaignSurvivesHangingRecovery: a recovery procedure that loops
// forever yields Hung verdicts and RecoveryHang findings instead of
// stalling the campaign, and the parallel report matches the serial one
// byte for byte (Hung details render from configured bounds only).
func TestCampaignSurvivesHangingRecovery(t *testing.T) {
	serial, err := core.Analyze(fixture(t, "misbehave-recovery-hang"), fixtureWorkload(), sandboxConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if serial.RecoveryHangs == 0 {
		t.Error("RecoveryHangs = 0, want every oracle invocation counted as hung")
	}
	if serial.Report.CountByKind()[report.RecoveryHang] == 0 {
		t.Error("no RecoveryHang finding reported")
	}
	if serial.Recoveries == 0 {
		t.Error("Recoveries = 0, want hung invocations still counted")
	}
	par, err := core.Analyze(fixture(t, "misbehave-recovery-hang"), fixtureWorkload(), sandboxConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := par.Report.Format(true), serial.Report.Format(true); got != want {
		t.Errorf("parallel report with hung recoveries differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if par.RecoveryHangs != serial.RecoveryHangs {
		t.Errorf("RecoveryHangs diverge: serial %d, parallel %d", serial.RecoveryHangs, par.RecoveryHangs)
	}
}

// TestSandboxedCleanFixtureStaysClean: the control fixture completes
// without a single sandbox intervention or bug.
func TestSandboxedCleanFixtureStaysClean(t *testing.T) {
	res, err := core.Analyze(fixture(t, "misbehave-clean"), fixtureWorkload(), sandboxConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Report.Bugs()); n != 0 {
		t.Errorf("clean fixture reported %d bug(s):\n%s", n, res.Report.Format(true))
	}
	if res.TargetPanics != 0 || res.TargetHangs != 0 || res.RecoveryHangs != 0 {
		t.Errorf("sandbox intervened on a clean target: panics=%d hangs=%d recovery=%d",
			res.TargetPanics, res.TargetHangs, res.RecoveryHangs)
	}
}

// TestPanicReportsAreDeterministic: a target panic is reported with a
// trace of frames only — no goroutine IDs, no argument words — so two
// identical serial campaigns render byte-identical reports.
func TestPanicReportsAreDeterministic(t *testing.T) {
	var reports []string
	for i := 0; i < 2; i++ {
		res, err := core.Analyze(fixture(t, "misbehave-run-panic"), fixtureWorkload(), sandboxConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, renderReport(t, res.Report))
	}
	if !strings.Contains(reports[0], "target trace:") {
		t.Fatalf("report carries no target trace:\n%s", reports[0])
	}
	if reports[0] != reports[1] {
		t.Errorf("identical campaigns rendered different reports\n--- first ---\n%s\n--- second ---\n%s", reports[0], reports[1])
	}
}

// TestPanicTracesNameOnlyTargetFrames: the trace of a target panic and
// of a crashed recovery lists the target's frames and nothing else. The
// runtime's panic machinery, the sandbox, the oracle, the campaign and
// the goroutine it ran on all drop out, so the trace reads the same
// whatever Mumak's own line numbers, Go release or architecture. PMDK
// 1.12's undo log overflow window (§6.4) makes btree's recovery panic
// inside the library.
func TestPanicTracesNameOnlyTargetFrames(t *testing.T) {
	for _, tc := range []struct {
		name, block string
		app         harness.Application
		w           workload.Workload
		cfg         core.Config
		// target lists the function-name prefixes of the target's code.
		target []string
	}{
		{"run panic", "target trace:", fixture(t, "misbehave-run-panic"), fixtureWorkload(), sandboxConfig(1),
			[]string{"mumak/internal/apps/apptest/misbehave."}},
		{"recovery panic", "recovery trace:", fixture(t, "misbehave-recovery-panic"), fixtureWorkload(), sandboxConfig(4),
			[]string{"mumak/internal/apps/apptest/misbehave."}},
		{"btree PMDK 1.12", "recovery trace:", btree.New(apps.Config{Ver: pmdk.V112, WithRecovery: true}),
			workload.Generate(workload.Config{N: 500, Seed: 42}), core.Config{Workers: 2},
			[]string{"mumak/internal/apps/btree.", "mumak/internal/pmdk."}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Analyze(tc.app, tc.w, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			traces := 0
			for _, f := range res.Report.Bugs() {
				_, trace, ok := strings.Cut(f.Detail, "\n"+tc.block+"\n")
				if !ok {
					continue
				}
				traces++
				for _, line := range strings.Split(trace, "\n") {
					fn, _, _ := strings.Cut(strings.TrimSpace(line), " at ")
					inTarget := false
					for _, p := range tc.target {
						inTarget = inTarget || strings.HasPrefix(fn, p)
					}
					if !inTarget {
						t.Fatalf("%s names %q, a frame outside the target:\n%s", tc.block, line, f.Detail)
					}
				}
			}
			if traces == 0 {
				t.Fatalf("no finding carries a %s block:\n%s", tc.block, res.Report.Format(true))
			}
		})
	}
}
