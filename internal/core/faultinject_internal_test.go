package core

import (
	"errors"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// failingApp wraps a target so that every execution fails before any PM
// instruction, deterministically — the worst case for a campaign that
// assumes replays reproduce the instrumented run.
type failingApp struct{ harness.Application }

func (failingApp) Setup(e *pmem.Engine) error {
	return errors.New("deterministic setup failure")
}

// buildTree runs the phase-1 instrumented execution and returns the
// failure point tree, mirroring what Analyze does before injection.
func buildTree(t *testing.T, app harness.Application, w workload.Workload) (*fpt.Tree, *stack.Table) {
	t.Helper()
	stacks := stack.NewTable()
	tree := fpt.New(stacks)
	builder := fpt.NewBuilder(tree, fpt.GranPersistency)
	_, sig, err := harness.Execute(app, w,
		pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks}, builder)
	if err != nil || sig != nil {
		t.Fatalf("instrumented run: err=%v sig=%v", err, sig)
	}
	if tree.Len() == 0 {
		t.Fatal("instrumented run produced no failure points")
	}
	return tree, stacks
}

// injectTree runs a campaign over a tree an earlier instrumented run
// built: the builder's hand-off offers it each leaf in turn, as phase 1
// would, before the campaign completes.
func injectTree(app harness.Application, w workload.Workload, tree *fpt.Tree,
	cfg Config, rep *report.Report, res *Result, deadline time.Time) (bool, error) {

	m := newCampaign(app, w, tree.Stacks(), cfg, rep, res, cfg.sandbox(deadline))
	defer m.pool.stop()
	for _, leaf := range tree.LeavesByICount() {
		m.offer(leaf)
	}
	return injectAll(tree, m)
}

func testTarget() harness.Application {
	return btree.New(apps.Config{SPT: true, PoolSize: 1 << 20})
}

func testWorkload() workload.Workload {
	return workload.Generate(workload.Config{N: 60, Seed: 7, Keyspace: 20})
}

// TestCounterModeCountsFailedReplays drives the campaign with a target
// whose replays deterministically error. Only stack mode replays, so it
// runs there: every consumed leaf must be counted as skipped until the
// no-progress abort, serially and in parallel, with identical totals.
// (Counter mode judges phase-1 images and re-executes nothing.)
func TestCounterModeCountsFailedReplays(t *testing.T) {
	app, w := testTarget(), testWorkload()
	for _, workers := range []int{0, 4} {
		tree, stacks := buildTree(t, app, w)
		rep := &report.Report{Target: "test", Tool: "test", Stacks: stacks}
		res := &Result{Report: rep}
		bad := failingApp{app}
		timedOut, err := injectTree(bad, w, tree, Config{StackMode: true, Workers: workers}, rep, res, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if timedOut {
			t.Fatal("unexpected timeout")
		}
		if res.Injections != 0 || res.Recoveries != 0 {
			t.Fatalf("workers=%d: Injections=%d Recoveries=%d, want 0/0", workers, res.Injections, res.Recoveries)
		}
		if res.SkippedFailurePoints != maxNoProgress || len(rep.Quarantined) != maxNoProgress {
			t.Fatalf("workers=%d: skipped %d, quarantined %d failure points, want %d each",
				workers, res.SkippedFailurePoints, len(rep.Quarantined), maxNoProgress)
		}
		checkQuarantineReasons(t, rep, "deterministic setup failure")
	}
}

// checkQuarantineReasons asserts that every quarantined failure point
// carries the replay error behind it.
func checkQuarantineReasons(t *testing.T, rep *report.Report, want string) {
	t.Helper()
	for _, q := range rep.Quarantined {
		if !strings.Contains(q.Reason, want) {
			t.Fatalf("failure point #%d quarantined for %q, want the replay error %q", q.LeafID, q.Reason, want)
		}
	}
}

// TestStackModeAbortsAfterNoProgress regresses the stack-mode livelock:
// a replay that errors before reaching any unvisited failure point used
// to retry the identical deterministic run forever. The campaign must
// abort after a bounded number of no-progress attempts and surface the
// error.
func TestStackModeAbortsAfterNoProgress(t *testing.T) {
	app, w := testTarget(), testWorkload()
	tree, stacks := buildTree(t, app, w)
	rep := &report.Report{Target: "test", Tool: "test", Stacks: stacks}
	res := &Result{Report: rep}
	bad := failingApp{app}
	// A short deadline turns a regressed livelock into a test failure
	// (timedOut=true) instead of a hang.
	deadline := time.Now().Add(30 * time.Second)
	timedOut, err := injectTree(bad, w, tree, Config{StackMode: true}, rep, res, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("campaign hit the deadline: no-progress retries were not bounded")
	}
	if !res.InjectionAborted {
		t.Fatal("InjectionAborted not set after repeated no-progress replays")
	}
	if len(rep.Quarantined) != maxNoProgress {
		t.Fatalf("%d failure points quarantined, want %d", len(rep.Quarantined), maxNoProgress)
	}
	checkQuarantineReasons(t, rep, "deterministic setup failure")
}

func TestTruncateRuneBoundary(t *testing.T) {
	multi := strings.Repeat("é", 600) // 2-byte rune: every odd index splits it
	for _, n := range []int{1, 2, 3, 799, 800, 801} {
		got := truncate(multi, n)
		if !utf8.ValidString(got) {
			t.Errorf("truncate(%d) emitted invalid UTF-8: %q...", n, got[:8])
		}
		if !strings.HasSuffix(got, "...") {
			t.Errorf("truncate(%d) lost the ellipsis marker", n)
		}
	}
	if got := truncate("short", 800); got != "short" {
		t.Errorf("truncate left short string %q", got)
	}
	exact := strings.Repeat("a", 800)
	if got := truncate(exact, 800); got != exact {
		t.Errorf("truncate modified string of exactly n bytes")
	}
}
