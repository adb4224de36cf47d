package core_test

import (
	"fmt"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

// stackDiffCombos is the seed × persistence-domain matrix of the
// stack-mode differential suite.
var stackDiffCombos = []struct {
	seed int64
	eadr bool
}{
	{11, false},
	{4242, false},
	{11, true},
	{4242, true},
}

// diffStackCampaign runs the same stack-mode campaign serially and with
// 4 workers and requires byte-identical reports and agreeing aggregate
// counters.
func diffStackCampaign(t *testing.T, mk func() (harness.Application, error), seed int64, eadr, wantFindings bool) {
	t.Helper()
	w := workload.Generate(workload.Config{N: 120, Seed: seed, Keyspace: 60,
		PutFrac: 2, GetFrac: 1, DeleteFrac: 1})
	cfg := core.Config{StackMode: true, EADR: eadr, DisableTraceAnalysis: true}

	app, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.Analyze(app, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wantFindings && len(serial.Report.Bugs()) == 0 {
		t.Fatal("fixture produced no findings; the byte-identity check is vacuous")
	}
	want := serial.Report.Format(true)

	app, err = mk()
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Workers = 4
	par, err := core.Analyze(app, w, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := par.Report.Format(true); got != want {
		t.Errorf("parallel stack-mode report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if par.Injections != serial.Injections || par.Recoveries != serial.Recoveries ||
		par.SkippedFailurePoints != serial.SkippedFailurePoints ||
		par.EngineEvents != serial.EngineEvents ||
		par.InjectionAborted != serial.InjectionAborted {
		t.Errorf("counters diverge: injections %d/%d recoveries %d/%d skipped %d/%d events %d/%d aborted %v/%v",
			par.Injections, serial.Injections, par.Recoveries, serial.Recoveries,
			par.SkippedFailurePoints, serial.SkippedFailurePoints,
			par.EngineEvents, serial.EngineEvents,
			par.InjectionAborted, serial.InjectionAborted)
	}
	if par.CampaignWorkers != 4 || serial.CampaignWorkers != 1 {
		t.Errorf("campaign worker counts: parallel %d (want 4), serial %d (want 1)",
			par.CampaignWorkers, serial.CampaignWorkers)
	}
}

// TestStackModeParallelMatchesSerial is the stack-mode determinism
// contract, mirroring the counter-mode differential suite: for any
// worker count the parallel stack-mode campaign must produce a report
// byte-identical to the serial one, with agreeing aggregate counters.
// Every registry target is exercised (the
// seed × eADR combos rotate across the registry so each combination
// appears), and a seeded-bug fixture with real findings covers the full
// matrix so byte-identity is never vacuous. Run under -race this also
// exercises the parallel driver's cursor and the shared verdict memo on
// every registered target.
func TestStackModeParallelMatchesSerial(t *testing.T) {
	for i, name := range apps.Names() {
		combo := stackDiffCombos[i%len(stackDiffCombos)]
		name := name
		t.Run(fmt.Sprintf("%s/seed=%d/eadr=%v", name, combo.seed, combo.eadr), func(t *testing.T) {
			diffStackCampaign(t, func() (harness.Application, error) {
				return apps.New(name, apps.Config{SPT: true, PoolSize: 8 << 20, WithRecovery: true})
			}, combo.seed, combo.eadr, false)
		})
	}
	// The seeded-bug fixture has real crash-consistency findings, so the
	// byte-identity check bites; it runs the whole seed × eADR matrix.
	for _, combo := range stackDiffCombos {
		combo := combo
		t.Run(fmt.Sprintf("btree-buggy/seed=%d/eadr=%v", combo.seed, combo.eadr), func(t *testing.T) {
			diffStackCampaign(t, func() (harness.Application, error) {
				return btree.New(cfgSPT(btree.BugCountOutsideTx)), nil
			}, combo.seed, combo.eadr, true)
		})
	}
}
