package fastfair_test

import (
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest"
	"mumak/internal/apps/fastfair"
	"mumak/internal/bugs"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

func cfgBase() apps.Config { return apps.Config{PoolSize: 4 << 20} }

func mk(cfg apps.Config) func() harness.Application {
	return func() harness.Application { return fastfair.New(cfg) }
}

func denseWorkload(seed int64) workload.Workload {
	return workload.Generate(workload.Config{N: 300, Seed: seed, Keyspace: 120, PutFrac: 2, GetFrac: 1, DeleteFrac: 1})
}

func TestKVSemantics(t *testing.T) {
	apptest.KVSemantics(t, fastfair.New(cfgBase()), denseWorkload(1))
}

func TestSemanticsManySplits(t *testing.T) {
	w := workload.Generate(workload.Config{N: 5000, Seed: 2, Keyspace: 2000})
	cfg := cfgBase()
	cfg.PoolSize = 16 << 20
	apptest.KVSemantics(t, fastfair.New(cfg), w)
}

// TestCascadingSplitFindsParentAboveSplitNode regresses a cascading
// split that put an internal node's separator on that node's own level:
// at 13,000 operations of the CLI's workload (seed 42) an internal node
// ended up pointing at itself, and every later descent through it
// looped until the fuel budget stopped the run. The tree must answer
// every read like the model and pass its recovery check, well inside
// a bounded budget.
func TestCascadingSplitFindsParentAboveSplitNode(t *testing.T) {
	w := workload.Generate(workload.Config{N: 13000, Seed: 42})
	app := fastfair.New(apps.Config{PoolSize: 16 << 20})
	e := apptest.KVSemanticsWithin(t, app, w, 1<<24)
	if err := app.Recover(e); err != nil {
		t.Fatalf("recovery check of the final tree: %v", err)
	}
}

func TestCrashConsistentWithoutBugs(t *testing.T) {
	apptest.CrashConsistent(t, mk(cfgBase()), denseWorkload(3), 0)
}

func TestShiftLostKeyExposed(t *testing.T) {
	cfg := cfgBase()
	cfg.Bugs = bugs.Enable(fastfair.BugShiftLostKey)
	apptest.ExposesBug(t, mk(cfg), denseWorkload(4), 0)
}

func TestFusedFenceBugsHiddenFromPrefix(t *testing.T) {
	for _, id := range []bugs.ID{
		fastfair.BugShiftSingleFence,
		fastfair.BugSiblingSingleFence,
		fastfair.BugSplitFusedFence,
	} {
		id := id
		t.Run(string(id), func(t *testing.T) {
			cfg := cfgBase()
			cfg.Bugs = bugs.Enable(id)
			apptest.HiddenFromPrefix(t, mk(cfg), denseWorkload(5), 0)
		})
	}
}

func TestPerfBugsDoNotBreakRecovery(t *testing.T) {
	cfg := cfgBase()
	cfg.Bugs = bugs.Enable("fastfair/pf-01", "fastfair/pf-02", "fastfair/pf-03")
	apptest.CrashConsistent(t, mk(cfg), denseWorkload(6), 0)
}
