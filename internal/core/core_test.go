package core_test

import (
	"strings"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/apps/hashatomic"
	"mumak/internal/apps/levelhash"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/report"
	"mumak/internal/workload"
)

func smallWorkload(seed int64) workload.Workload {
	return workload.Generate(workload.Config{N: 150, Seed: seed, Keyspace: 50})
}

func cfgSPT(ids ...bugs.ID) apps.Config {
	return apps.Config{SPT: true, PoolSize: 1 << 20, Bugs: bugs.Enable(ids...)}
}

func TestCleanTargetReportsNoBugs(t *testing.T) {
	// The no-false-positive property of §6.2: a correct target yields
	// zero bug-severity findings (warnings are allowed).
	res, err := core.Analyze(btree.New(cfgSPT()), smallWorkload(1), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Report.Bugs()); n != 0 {
		t.Fatalf("clean target produced %d bugs:\n%s", n, res.Report.Format(false))
	}
	if res.Injections == 0 {
		t.Fatal("no faults were injected")
	}
	if res.TraceLen == 0 {
		t.Fatal("no trace was collected")
	}
}

func TestFaultInjectionFindsCrashConsistencyBug(t *testing.T) {
	cfg := cfgSPT(btree.BugCountOutsideTx)
	res, err := core.Analyze(btree.New(cfg), smallWorkload(2), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range res.Report.Bugs() {
		if f.Kind == report.CrashConsistency {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded crash-consistency bug not reported:\n%s", res.Report.Format(true))
	}
}

func TestTraceAnalysisFindsPerformanceBugs(t *testing.T) {
	// pf-01 = redundant flush, pf-02 = redundant fence, pf-03 =
	// transient data (a warning kind under the §4.2 rules). Knobs are
	// planted one at a time, as in the coverage experiment: planted
	// together they can mask each other (an extra flush makes the
	// following extra fence non-redundant).
	cases := []struct {
		knob bugs.ID
		kind report.Kind
	}{
		{"btree/pf-01", report.RedundantFlush},
		{"btree/pf-02", report.RedundantFence},
		{"btree/pf-03", report.WarnTransientData},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.knob), func(t *testing.T) {
			res, err := core.Analyze(btree.New(cfgSPT(tc.knob)), smallWorkload(3),
				core.Config{KeepWarnings: true})
			if err != nil {
				t.Fatal(err)
			}
			if counts := res.Report.CountByKind(); counts[tc.kind] == 0 {
				t.Errorf("%v not reported: %v", tc.kind, counts)
			}
		})
	}
}

func TestMissedBugYieldsWarningNotBug(t *testing.T) {
	// The fused-fence ordering bugs are invisible to prefix-based
	// fault injection; Mumak must not report a bug, and the §4.2
	// pattern 5 warning marks the unexplored orderings.
	cfg := apps.Config{PoolSize: 1 << 20, Bugs: bugs.Enable(hashatomic.BugInsertSingleFence)}
	res, err := core.Analyze(hashatomic.New(cfg), smallWorkload(4), core.Config{KeepWarnings: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Report.Bugs() {
		if f.Kind == report.CrashConsistency {
			t.Fatalf("prefix-hidden bug unexpectedly reported:\n%s", res.Report.Format(true))
		}
	}
	if res.Report.CountByKind()[report.WarnFenceOrdering] == 0 {
		t.Error("fence-ordering warning absent for fused-fence bug")
	}
}

func TestReportsIncludeBugPath(t *testing.T) {
	cfg := cfgSPT(btree.BugCountOutsideTx)
	res, err := core.Analyze(btree.New(cfg), smallWorkload(5), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Report.Format(false)
	if !strings.Contains(out, "btree") || !strings.Contains(out, ".go:") {
		t.Errorf("report lacks a complete code path:\n%s", out)
	}
}

// Bug paths start at the application's own frames. The stack table
// trims instrumentation frames, including ones the compiler inlined into
// a library frame: pmem.(*Engine).CLWB inlined into pmdk.(*Pool).Flush
// must not head every flush-site path.
func TestBugPathsHoldNoInstrumentationFrames(t *testing.T) {
	cfg := cfgSPT(btree.BugRootPublishOutsideTx)
	res, err := core.Analyze(btree.New(cfg), smallWorkload(5), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bugs := res.Report.Bugs()
	if len(bugs) == 0 {
		t.Fatal("seeded bug not reported")
	}
	instrumentation := []string{
		"mumak/internal/pmem.", "mumak/internal/stack.", "mumak/internal/trace.",
		"mumak/internal/fpt.", "mumak/internal/core.", "mumak/internal/tools", "mumak/internal/oracle.",
	}
	for _, f := range bugs {
		frames := res.Report.Stacks.Frames(f.Stack)
		if len(frames) == 0 {
			t.Fatalf("bug at instruction %d has no path", f.ICount)
		}
		for _, fr := range frames {
			for _, p := range instrumentation {
				if strings.HasPrefix(fr.Function, p) {
					t.Errorf("bug at instruction %d: instrumentation frame %s in its path", f.ICount, fr)
				}
			}
		}
	}
}

func TestUniqueFiltering(t *testing.T) {
	// The transient-data knob fires on every put, all through the same
	// code path: the report must collapse the occurrences (Table 3).
	cfg := cfgSPT("btree/pf-03")
	res, err := core.Analyze(btree.New(cfg), smallWorkload(6), core.Config{KeepWarnings: true})
	if err != nil {
		t.Fatal(err)
	}
	raw := 0
	for _, f := range res.Report.Findings {
		if f.Kind == report.WarnTransientData || f.Kind == report.DirtyOverwrite {
			raw++
		}
	}
	uniq := 0
	for _, f := range res.Report.Unique() {
		if f.Kind == report.WarnTransientData || f.Kind == report.DirtyOverwrite {
			uniq++
		}
	}
	if raw < 2 {
		t.Skipf("knob fired only %d times; nothing to dedup", raw)
	}
	if uniq >= raw {
		t.Fatalf("unique filtering did nothing: %d raw, %d unique", raw, uniq)
	}
}

func TestGranularityAblation(t *testing.T) {
	// Store-granularity failure points must outnumber
	// persistency-instruction failure points by a wide margin (Fig 3).
	w := smallWorkload(7)
	app := btree.New(cfgSPT())
	persist, err := core.Analyze(app, w, core.Config{Granularity: fpt.GranPersistency,
		DisableFaultInjection: true, DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.Analyze(app, w, core.Config{Granularity: fpt.GranStore,
		DisableFaultInjection: true, DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if store.Tree.Len() < 2*persist.Tree.Len() {
		t.Fatalf("store granularity %d vs persistency %d failure points; expected a wide gap",
			store.Tree.Len(), persist.Tree.Len())
	}
}

func TestLevelHashOracleStory(t *testing.T) {
	// §6.2: with the original (absent) recovery the oracle misses the
	// seeded bug; with the added recovery it finds it.
	w := workload.Generate(workload.Config{N: 400, Seed: 8, Keyspace: 250, PutFrac: 3, GetFrac: 1, DeleteFrac: 1})
	id := bugs.ID("levelhash/c01-top-slot-count-order")

	without := apps.Config{PoolSize: 2 << 20, Bugs: bugs.Enable(id)}
	resW, err := core.Analyze(levelhash.New(without), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(resW.Report, report.CrashConsistency); n != 0 {
		t.Fatalf("bug found without a recovery procedure (%d findings)", n)
	}

	with := without
	with.WithRecovery = true
	resR, err := core.Analyze(levelhash.New(with), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(resR.Report, report.CrashConsistency); n == 0 {
		t.Fatal("bug missed even with the recovery procedure in place")
	}
}

func TestStackModeMatchesCounterMode(t *testing.T) {
	cfg := cfgSPT(btree.BugCountOutsideTx)
	w := smallWorkload(9)
	counter, err := core.Analyze(btree.New(cfg), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stackMode, err := core.Analyze(btree.New(cfg), w, core.Config{StackMode: true})
	if err != nil {
		t.Fatal(err)
	}
	cGot := countKind(counter.Report, report.CrashConsistency)
	sGot := countKind(stackMode.Report, report.CrashConsistency)
	if (cGot == 0) != (sGot == 0) {
		t.Fatalf("counter mode found %d, stack mode %d", cGot, sGot)
	}
}

func countKind(r *report.Report, k report.Kind) int {
	n := 0
	for _, f := range r.Bugs() {
		if f.Kind == k {
			n++
		}
	}
	return n
}
