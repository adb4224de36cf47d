package core_test

import (
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/apps/levelhash"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

// parallelCases are seed targets with real findings, the determinism
// fixtures for the parallel campaign.
func parallelCases() []struct {
	name string
	mk   func() harness.Application
	w    workload.Workload
} {
	return []struct {
		name string
		mk   func() harness.Application
		w    workload.Workload
	}{
		{
			name: "btree",
			mk: func() harness.Application {
				return btree.New(cfgSPT(btree.BugCountOutsideTx))
			},
			w: smallWorkload(21),
		},
		{
			name: "levelhash",
			mk: func() harness.Application {
				return levelhash.New(apps.Config{
					PoolSize: 2 << 20, WithRecovery: true,
					Bugs: bugs.Enable("levelhash/c01-top-slot-count-order"),
				})
			},
			w: workload.Generate(workload.Config{N: 300, Seed: 8, Keyspace: 150, PutFrac: 3, GetFrac: 1, DeleteFrac: 1}),
		},
	}
}

// TestParallelInjectionMatchesSerial checks the campaign's determinism
// contract: for any worker count the merged report is byte-identical to
// the serial run, and the aggregate counters agree. Run under -race with
// >=4 workers this also exercises the concurrency of the worker pool on
// targets with real findings.
func TestParallelInjectionMatchesSerial(t *testing.T) {
	for _, tc := range parallelCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial, err := core.Analyze(tc.mk(), tc.w, core.Config{KeepWarnings: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Report.Bugs()) == 0 {
				t.Fatal("fixture produced no findings; determinism check is vacuous")
			}
			want := serial.Report.Format(true)
			for _, workers := range []int{2, 4, 8} {
				par, err := core.Analyze(tc.mk(), tc.w, core.Config{KeepWarnings: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := par.Report.Format(true); got != want {
					t.Errorf("workers=%d: report differs from serial run\n--- serial ---\n%s\n--- parallel ---\n%s",
						workers, want, got)
				}
				if par.Injections != serial.Injections || par.Recoveries != serial.Recoveries ||
					par.SkippedFailurePoints != serial.SkippedFailurePoints ||
					par.EngineEvents != serial.EngineEvents {
					t.Errorf("workers=%d: counters diverge: injections %d/%d recoveries %d/%d skipped %d/%d events %d/%d",
						workers, par.Injections, serial.Injections, par.Recoveries, serial.Recoveries,
						par.SkippedFailurePoints, serial.SkippedFailurePoints, par.EngineEvents, serial.EngineEvents)
				}
			}
		})
	}
}
