package core_test

import (
	"path/filepath"
	"strings"
	"testing"

	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/harness"
)

// quarantineConfig runs the campaign in stack mode, the only mode that
// replays: a counter-mode campaign judges phase-1 images, runs no
// application code after phase 1 and cannot observe the seeded replay
// failures.
func quarantineConfig(workers int) core.Config {
	return core.Config{StackMode: true, Workers: workers}
}

// TestBrokenReplaysAreQuarantined is the robustness acceptance test: a
// target whose every replay fails must not abort the campaign or
// silently drop coverage — every failure point ends up in the report's
// quarantined section, serial and parallel.
func TestBrokenReplaysAreQuarantined(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := core.Analyze(fixture(t, "misbehave-replay-broken"), fixtureWorkload(),
			quarantineConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: campaign aborted: %v", workers, err)
		}
		quarantined := len(res.Report.Quarantined)
		if quarantined == 0 {
			t.Fatalf("workers=%d: no failure points quarantined", workers)
		}
		if quarantined != res.Tree.Len() {
			t.Errorf("workers=%d: quarantined %d of %d failure points",
				workers, quarantined, res.Tree.Len())
		}
		if res.SkippedFailurePoints < quarantined {
			t.Errorf("workers=%d: skipped %d < quarantined %d; quarantine must stay a subset",
				workers, res.SkippedFailurePoints, quarantined)
		}
		if res.Injections != 0 {
			t.Errorf("workers=%d: broken replays injected %d faults", workers, res.Injections)
		}
		text := res.Report.Format(false)
		if !strings.Contains(text, "quarantined failure points:") ||
			!strings.Contains(text, "seeded replay failure") {
			t.Errorf("workers=%d: report lacks the quarantine section:\n%s", workers, text)
		}
	}
}

// TestFlakyReplayIsRetriedNotQuarantined: one transient replay failure
// must be absorbed by the bounded retry, costing a retry counter and
// nothing else.
func TestFlakyReplayIsRetriedNotQuarantined(t *testing.T) {
	res, err := core.Analyze(fixture(t, "misbehave-replay-flaky"), fixtureWorkload(),
		quarantineConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RetriedFailurePoints != 1 {
		t.Errorf("RetriedFailurePoints = %d, want 1", res.RetriedFailurePoints)
	}
	if len(res.Report.Quarantined) != 0 || res.SkippedFailurePoints != 0 {
		t.Errorf("transient failure was not retried away: quarantined=%d skipped=%d",
			len(res.Report.Quarantined), res.SkippedFailurePoints)
	}
	if res.Injections != res.Tree.Len() {
		t.Errorf("Injections = %d, want full coverage of %d", res.Injections, res.Tree.Len())
	}
	if strings.Contains(res.Report.Format(false), "quarantined") {
		t.Error("report grew a quarantine section for a retried-away failure")
	}
}

// TestQuarantineSurvivesJournalResume: quarantined leaves are journaled
// verdicts like any other — a resumed campaign must reproduce the
// quarantine section byte-identically without re-running the replays.
func TestQuarantineSurvivesJournalResume(t *testing.T) {
	mk := func() harness.Application { return fixture(t, "misbehave-replay-broken") }
	cfg := quarantineConfig(1)
	ref, err := core.Analyze(mk(), fixtureWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	analyzeJournaled(t, mk, fixtureWorkload(), cfg, dir)
	logLen := fileSize(t, filepath.Join(dir, campaign.JournalFile))
	cut := copyTruncated(t, dir, logLen/2)
	res := analyzeJournaled(t, mk, fixtureWorkload(), cfg, cut)
	assertResumeMatches(t, "quarantine-resume", ref, res)
	if len(res.Report.Quarantined) != len(ref.Report.Quarantined) {
		t.Errorf("resumed run quarantined %d failure points, want %d",
			len(res.Report.Quarantined), len(ref.Report.Quarantined))
	}
}
