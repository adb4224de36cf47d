package experiments

import (
	"fmt"
	"strings"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/report"
	"mumak/internal/workload"
)

// renderAblations writes ablations.txt: two design decisions measured on
// one btree (SPT) run at sc. Failure-point granularity (§4.1): the
// failure points at persistency instructions against those at every
// store, the gap of Fig 3. Persistence domain (§4.3): the bugs Mumak
// reports under ADR against those under eADR, where every flush is
// unnecessary.
func renderAblations(sc Scale) (string, error) {
	w := workload.Generate(workload.Config{N: sc.Ops, Seed: sc.Seed})
	analyze := func(cfg core.Config) (*core.Result, error) {
		app, err := apps.New("btree", apps.Config{SPT: true, PoolSize: 4 << 20})
		if err != nil {
			return nil, err
		}
		return core.Analyze(app, w, cfg)
	}
	var sb strings.Builder
	sb.WriteString("# Failure points by granularity, btree (SPT) (§4.1)\n")
	fmt.Fprintf(&sb, "%-14s %14s\n", "granularity", "failure points")
	for _, g := range []struct {
		name string
		g    fpt.Granularity
	}{{"persistency", fpt.GranPersistency}, {"store", fpt.GranStore}} {
		res, err := analyze(core.Config{Granularity: g.g, DisableTraceAnalysis: true, DisableFaultInjection: true})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-14s %14d\n", g.name, res.Tree.Len())
	}
	sb.WriteString("\n# Bugs by persistence domain, btree (SPT) (§4.3)\n")
	fmt.Fprintf(&sb, "%-14s %6s %18s %16s\n", "domain", "bugs", "crash-consistency", "redundant flush")
	for _, d := range []struct {
		name string
		eadr bool
	}{{"ADR", false}, {"eADR", true}} {
		res, err := analyze(core.Config{EADR: d.eadr})
		if err != nil {
			return "", err
		}
		kinds := res.Report.CountByKind()
		fmt.Fprintf(&sb, "%-14s %6d %18d %16d\n", d.name, len(res.Report.Bugs()),
			kinds[report.CrashConsistency], kinds[report.RedundantFlush])
	}
	return sb.String(), nil
}
