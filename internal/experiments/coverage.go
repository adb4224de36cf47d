package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mumak/internal/apps"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/report"
	"mumak/internal/taxonomy"
	"mumak/internal/workload"
)

// tally counts found and seeded bugs, correctness and performance apart.
type tally struct{ found, total, pfound, ptotal int }

func (t *tally) add(b bugs.Bug, found bool) {
	f, n := &t.pfound, &t.ptotal
	if b.Correctness() {
		f, n = &t.found, &t.total
	}
	*n++
	if found {
		*f++
	}
}

// renderCoverage writes coverage.txt (withRecovery) or
// coverage_norec.txt: the §6.2 study against Witcher's bug list. It runs
// Mumak against every seeded bug of the registry, one bug at a time (so
// bugs cannot mask one another), and prints what it found per
// application, the headline percentage and what the registry expects.
// withRecovery selects the Level Hashing oracle variant, reproducing the
// 1-of-17 story when false.
func renderCoverage(sc Scale, withRecovery bool) (string, error) {
	perApp := map[string]*tally{}
	var all tally
	var misses []string
	for _, b := range bugs.Registry {
		found, err := coverOne(b, sc, withRecovery)
		if err != nil {
			return "", fmt.Errorf("coverage %s: %w", b.ID, err)
		}
		if perApp[b.App] == nil {
			perApp[b.App] = &tally{}
		}
		perApp[b.App].add(b, found)
		all.add(b, found)
		if expected := b.Mechanism != bugs.Missed; found != expected {
			state := "unexpectedly found"
			if !found {
				state = "unexpectedly missed"
			}
			misses = append(misses, fmt.Sprintf("  %s: %s", b.ID, state))
		}
	}
	names := make([]string, 0, len(perApp))
	for n := range perApp {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("# Bug coverage against the seeded registry (the paper's Witcher-list study, §6.2)\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s\n", "target", "correctness", "performance")
	for _, n := range names {
		r := perApp[n]
		fmt.Fprintf(&sb, "%-12s %11d/%-3d %11d/%-3d\n", n, r.found, r.total, r.pfound, r.ptotal)
	}
	fmt.Fprintf(&sb, "overall: %d/%d correctness, %d/%d performance -> %d%% (paper: 90%%)\n",
		all.found, all.total, all.pfound, all.ptotal, 100*(all.found+all.pfound)/(all.total+all.ptotal))
	if len(misses) > 0 {
		sb.WriteString("deviations from expectation:\n")
		sb.WriteString(strings.Join(misses, "\n"))
		sb.WriteByte('\n')
	}
	ct, pt, cf, pf := bugs.Counts()
	fmt.Fprintf(&sb, "registry expectation: %d/%d correctness, %d/%d performance -> %d%%\n",
		cf, ct, pf, pt, 100*(cf+pf)/(ct+pt))
	return sb.String(), nil
}

// coverageWorkload picks a per-app workload dense enough to exercise the
// seeded bug sites (resizes, splits, displacement).
func coverageWorkload(app string, sc Scale) workload.Workload {
	cfg := workload.Config{N: sc.Ops, Seed: sc.Seed, Keyspace: uint64(sc.Ops/2 + 1)}
	switch app {
	case "levelhash", "cceh", "fastfair":
		cfg.PutFrac, cfg.GetFrac, cfg.DeleteFrac = 3, 1, 1
	}
	return workload.Generate(cfg)
}

// coverOne reports whether Mumak finds b, seeded alone.
func coverOne(b bugs.Bug, sc Scale, withRecovery bool) (bool, error) {
	cfg := apps.Config{
		SPT:          true,
		PoolSize:     16 << 20,
		Bugs:         bugs.Enable(b.ID),
		WithRecovery: withRecovery,
	}
	app, err := apps.New(b.App, cfg)
	if err != nil {
		return false, err
	}
	w := coverageWorkload(b.App, sc)
	res, err := core.Analyze(app, w, core.Config{Budget: sc.Budget, KeepWarnings: true, Classing: true})
	if err != nil {
		return false, err
	}
	counts := res.Report.CountByKind()
	switch {
	case b.Correctness():
		return counts[report.CrashConsistency] > 0, nil
	case b.Class == taxonomy.RedundantFlush:
		return counts[report.RedundantFlush] > 0, nil
	case b.Class == taxonomy.RedundantFence:
		return counts[report.RedundantFence] > 0, nil
	default: // transient data
		return counts[report.WarnTransientData] > 0 || counts[report.DirtyOverwrite] > 0, nil
	}
}
