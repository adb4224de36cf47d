package tools_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/apps/hashatomic"
	"mumak/internal/apps/montageht"
	"mumak/internal/apps/rbtree"
	"mumak/internal/bugs"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/tools/agamotto"
	"mumak/internal/tools/pmdebugger"
	"mumak/internal/tools/pmemcheck"
	"mumak/internal/tools/witcher"
	"mumak/internal/tools/xfdetector"
	"mumak/internal/tools/yat"
	"mumak/internal/workload"
)

func tinyWorkload(seed int64) workload.Workload {
	return workload.Generate(workload.Config{N: 40, Seed: seed, Keyspace: 12})
}

func cfgSPT(ids ...bugs.ID) apps.Config {
	return apps.Config{SPT: true, PoolSize: 1 << 20, Bugs: bugs.Enable(ids...)}
}

func hasKind(r *report.Report, k report.Kind) bool {
	for _, f := range r.Findings {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// TestXFDetectorFindsCrossFailureBug: XFDetector reports the
// publish-before-init bug, and the same input without the bug reports
// nothing.
func TestXFDetectorFindsCrossFailureBug(t *testing.T) {
	clean, err := xfdetector.New().Analyze(hashatomic.New(apps.Config{PoolSize: 1 << 20}), tinyWorkload(1), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Report.Findings) != 0 {
		t.Fatalf("XFDetector reports %d finding(s) on the clean target, first: %+v",
			len(clean.Report.Findings), clean.Report.Findings[0])
	}
	cfg := apps.Config{PoolSize: 1 << 20, Bugs: bugs.Enable(hashatomic.BugPublishBeforeInit)}
	res, err := xfdetector.New().Analyze(hashatomic.New(cfg), tinyWorkload(1), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(res.Report, report.CrashConsistency) {
		t.Fatal("XFDetector missed the publish-before-init bug")
	}
	if res.Explored == 0 {
		t.Fatal("no failure points explored")
	}
}

func TestXFDetectorRespectsBudget(t *testing.T) {
	w := workload.Generate(workload.Config{N: 3000, Seed: 2, Keyspace: 500})
	cfg := apps.Config{PoolSize: 8 << 20}
	res, err := xfdetector.New().Analyze(hashatomic.New(cfg), w, tools.Config{Budget: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("budget did not expire on a large workload")
	}
}

func TestPMDebuggerFindsUnloggedStore(t *testing.T) {
	cfg := cfgSPT(btree.BugSplitMissingAddRange)
	w := workload.Generate(workload.Config{N: 120, Seed: 3, Keyspace: 40, PutFrac: 1})
	res, err := pmdebugger.New().Analyze(btree.New(cfg), w, tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(res.Report, report.CrashConsistency) {
		t.Fatal("PMDebugger missed the missing-addrange bug")
	}
}

func TestPMDebuggerCleanTargetNoCorrectnessBugs(t *testing.T) {
	res, err := pmdebugger.New().Analyze(btree.New(cfgSPT()), tinyWorkload(4), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hasKind(res.Report, report.CrashConsistency) {
		t.Fatalf("false positive on clean target:\n%s", res.Report.Format(true))
	}
}

func TestPMDebuggerRejectsMontage(t *testing.T) {
	app := montageht.New(apps.Config{PoolSize: 1 << 20})
	_, err := pmdebugger.New().Analyze(app, tinyWorkload(5), tools.Config{})
	if !errors.Is(err, pmdebugger.ErrNoAnnotations) {
		t.Fatalf("err = %v, want ErrNoAnnotations (PMDK dependence)", err)
	}
}

func TestAgamottoFindsPerfBugsWithoutWorkload(t *testing.T) {
	cfg := cfgSPT("btree/pf-01")
	res, err := agamotto.New().Analyze(btree.New(cfg), workload.Workload{}, tools.Config{Budget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(res.Report, report.RedundantFlush) {
		t.Fatal("Agamotto's universal oracle missed the redundant flush")
	}
}

func TestAgamottoFindsUnloggedTxStore(t *testing.T) {
	cfg := cfgSPT(btree.BugCountOutsideTx)
	res, err := agamotto.New().Analyze(btree.New(cfg), workload.Workload{}, tools.Config{Budget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(res.Report, report.CrashConsistency) {
		t.Fatal("Agamotto's PMDK transaction oracle missed the non-transactional count update")
	}
}

// TestAgamottoIsDeterministic: exploration order and oracles depend on
// the target alone, so repeated runs report the same raw findings in the
// same order.
func TestAgamottoIsDeterministic(t *testing.T) {
	cfg := apps.Config{SPT: true, PoolSize: 1 << 20, Bugs: bugs.All("rbtree")}
	var first []report.Finding
	for run := range 5 {
		res, err := agamotto.New().Analyze(rbtree.New(cfg), workload.Workload{}, tools.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.Report.Findings
		} else if !reflect.DeepEqual(res.Report.Findings, first) {
			t.Fatalf("run %d reported %d raw findings that differ from the first run's %d",
				run, len(res.Report.Findings), len(first))
		}
	}
}

// TestBaselineReportsDependOnlyOnInput: pmemcheck and PMDebugger report
// their leftover stores in address order, and Witcher adds its checkers'
// findings in candidate order, so repeated runs on one input give one
// raw findings list and one rendered report, whatever the map order or
// which checker goroutine finishes first.
func TestBaselineReportsDependOnlyOnInput(t *testing.T) {
	bug := bugs.Enable(rbtree.BugRotateMissingAddRange)
	long := workload.Generate(workload.Config{N: 300, Seed: 1})
	for _, c := range []struct {
		tool tools.Tool
		cfg  apps.Config
		w    workload.Workload
	}{
		{pmemcheck.New(), apps.Config{SPT: true, PoolSize: 4 << 20, Bugs: bug}, long},
		{pmdebugger.New(), apps.Config{SPT: true, PoolSize: 4 << 20, Bugs: bug}, long},
		{witcher.New(), apps.Config{SPT: true, PoolSize: 1 << 20, Bugs: bug},
			workload.Generate(workload.Config{N: 60, Seed: 1, Keyspace: 12})},
	} {
		t.Run(c.tool.Name(), func(t *testing.T) {
			var first []report.Finding
			var firstText string
			for run := range 10 {
				res, err := c.tool.Analyze(rbtree.New(c.cfg), c.w, tools.Config{})
				if err != nil {
					t.Fatal(err)
				}
				text := res.Report.Format(true)
				if run == 0 {
					first, firstText = res.Report.Findings, text
					if len(first) == 0 {
						t.Fatal("no findings: the input does not exercise the report order")
					}
					continue
				}
				if !reflect.DeepEqual(res.Report.Findings, first) {
					t.Fatalf("run %d: the raw findings differ from the first run's", run)
				}
				if text != firstText {
					t.Fatalf("run %d: the rendered report differs from the first run's", run)
				}
			}
		})
	}
}

func TestWitcherFindsPrefixHiddenBug(t *testing.T) {
	// The fused-fence bug is invisible to Mumak's program-order
	// prefixes; Witcher's invariant-violating images expose it.
	cfg := apps.Config{PoolSize: 1 << 20, Bugs: bugs.Enable(hashatomic.BugInsertSingleFence)}
	res, err := witcher.New().Analyze(hashatomic.New(cfg), tinyWorkload(6), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(res.Report, report.CrashConsistency) {
		t.Fatal("Witcher missed the fused-fence ordering bug")
	}
}

func TestWitcherCleanTargetNoBugs(t *testing.T) {
	res, err := witcher.New().Analyze(hashatomic.New(apps.Config{PoolSize: 1 << 20}), tinyWorkload(7), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hasKind(res.Report, report.CrashConsistency) {
		t.Fatalf("false positive on clean target:\n%s", res.Report.Format(true))
	}
}

func TestWitcherOOMsUnderMemoryBudget(t *testing.T) {
	w := workload.Generate(workload.Config{N: 600, Seed: 8, Keyspace: 150})
	cfg := apps.Config{PoolSize: 4 << 20}
	res, err := witcher.New().Analyze(hashatomic.New(cfg), w, tools.Config{MemBudget: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Fatal("Witcher did not exhaust the memory budget (Table 2 behaviour)")
	}
}

func TestYatFindsFusedFenceBugExhaustively(t *testing.T) {
	cfg := apps.Config{PoolSize: 1 << 20, Bugs: bugs.Enable(hashatomic.BugInsertSingleFence)}
	w := workload.Generate(workload.Config{N: 8, Seed: 9, Keyspace: 4, PutFrac: 1})
	res, err := yat.New().Analyze(hashatomic.New(cfg), w, tools.Config{Budget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("budget expired after %d of the enumerated states", res.Explored)
	}
	if !hasKind(res.Report, report.CrashConsistency) {
		t.Fatal("Yat's exhaustive enumeration missed the fused-fence bug")
	}
	if res.Explored < 100 {
		t.Fatalf("Yat explored only %d states; expected an exhaustive enumeration", res.Explored)
	}
}

func TestYatCleanTinyTargetNoBugs(t *testing.T) {
	w := workload.Generate(workload.Config{N: 8, Seed: 10, Keyspace: 4, PutFrac: 1})
	res, err := yat.New().Analyze(hashatomic.New(apps.Config{PoolSize: 1 << 20}), w, tools.Config{Budget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("budget expired after %d states: not every image was judged", res.Explored)
	}
	if hasKind(res.Report, report.CrashConsistency) {
		t.Fatalf("false positive on clean target:\n%s", res.Report.Format(true))
	}
}
