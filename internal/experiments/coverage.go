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

// BugOutcome is one row of the §6.2 coverage study.
type BugOutcome struct {
	Bug      bugs.Bug
	Found    bool
	Expected bool // whether the registry expects Mumak to find it
	Detail   string
}

// CoverageResult aggregates the study.
type CoverageResult struct {
	Outcomes []BugOutcome
	// FoundCorrectness / FoundPerformance count detected bugs.
	FoundCorrectness, TotalCorrectness int
	FoundPerformance, TotalPerformance int
}

// Percent is the headline §6.2 number (the paper reports 90%).
func (c *CoverageResult) Percent() int {
	total := c.TotalCorrectness + c.TotalPerformance
	if total == 0 {
		return 0
	}
	return 100 * (c.FoundCorrectness + c.FoundPerformance) / total
}

// Coverage runs Mumak against every seeded bug of the registry, one bug
// at a time (so bugs cannot mask one another), and reports which were
// found — the §6.2 study against Witcher's bug list. withRecovery
// selects the Level Hashing oracle variant, reproducing the 1-of-17
// story when false.
func Coverage(sc Scale, withRecovery bool) (*CoverageResult, error) {
	res := &CoverageResult{}
	for _, b := range bugs.Registry {
		found, detail, err := coverOne(b, sc, withRecovery)
		if err != nil {
			return nil, fmt.Errorf("coverage %s: %w", b.ID, err)
		}
		res.Outcomes = append(res.Outcomes, BugOutcome{
			Bug: b, Found: found, Expected: b.Mechanism != bugs.Missed, Detail: detail,
		})
		if b.Correctness() {
			res.TotalCorrectness++
			if found {
				res.FoundCorrectness++
			}
		} else {
			res.TotalPerformance++
			if found {
				res.FoundPerformance++
			}
		}
	}
	return res, nil
}

// coverageWorkload picks a per-app workload dense enough to exercise the
// seeded bug sites (resizes, splits, displacement).
func coverageWorkload(app string, sc Scale) workload.Workload {
	n := sc.Ops
	if n > 2000 {
		n = 2000 // coverage needs breadth over depth; cap per-bug cost
	}
	cfg := workload.Config{N: n, Seed: sc.Seed, Keyspace: uint64(n/2 + 1)}
	switch app {
	case "levelhash", "cceh", "fastfair":
		cfg.PutFrac, cfg.GetFrac, cfg.DeleteFrac = 3, 1, 1
	}
	return workload.Generate(cfg)
}

func coverOne(b bugs.Bug, sc Scale, withRecovery bool) (bool, string, error) {
	cfg := apps.Config{
		SPT:          true,
		PoolSize:     16 << 20,
		Bugs:         bugs.Enable(b.ID),
		WithRecovery: withRecovery,
	}
	app, err := apps.New(b.App, cfg)
	if err != nil {
		return false, "", err
	}
	w := coverageWorkload(b.App, sc)
	res, err := core.Analyze(app, w, core.Config{Budget: sc.Budget, KeepWarnings: true, Classing: true})
	if err != nil {
		return false, "", err
	}
	counts := res.Report.CountByKind()
	switch {
	case b.Correctness():
		if counts[report.CrashConsistency] > 0 {
			return true, "fault injection", nil
		}
		if counts[report.WarnFenceOrdering] > 0 && b.Mechanism == bugs.Missed {
			return false, "warned only (unexplored orderings)", nil
		}
		return false, "", nil
	case b.Class == taxonomy.RedundantFlush:
		return counts[report.RedundantFlush] > 0, "trace analysis", nil
	case b.Class == taxonomy.RedundantFence:
		return counts[report.RedundantFence] > 0, "trace analysis", nil
	default: // transient data
		found := counts[report.WarnTransientData] > 0 || counts[report.DirtyOverwrite] > 0
		return found, "trace analysis", nil
	}
}

// RenderCoverage prints the per-application coverage table and the
// headline percentage.
func RenderCoverage(c *CoverageResult) string {
	type row struct{ found, total, pfound, ptotal int }
	perApp := map[string]*row{}
	var misses []string
	for _, o := range c.Outcomes {
		r := perApp[o.Bug.App]
		if r == nil {
			r = &row{}
			perApp[o.Bug.App] = r
		}
		if o.Bug.Correctness() {
			r.total++
			if o.Found {
				r.found++
			}
		} else {
			r.ptotal++
			if o.Found {
				r.pfound++
			}
		}
		if o.Found != o.Expected {
			state := "unexpectedly found"
			if !o.Found {
				state = "unexpectedly missed"
			}
			misses = append(misses, fmt.Sprintf("  %s: %s", o.Bug.ID, state))
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
		c.FoundCorrectness, c.TotalCorrectness, c.FoundPerformance, c.TotalPerformance, c.Percent())
	if len(misses) > 0 {
		sb.WriteString("deviations from expectation:\n")
		sb.WriteString(strings.Join(misses, "\n"))
		sb.WriteByte('\n')
	}
	return sb.String()
}
