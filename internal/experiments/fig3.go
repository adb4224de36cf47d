package experiments

import (
	"fmt"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/workload"
)

// fig3Sizes are the paper's workload sizes (3 000 … 300 000) divided by
// 10, keeping the non-linear x axis.
var fig3Sizes = []int{300, 600, 1500, 3000, 7500, 15000, 30000}

// fig3Targets are the three PMDK data stores of Fig 3.
var fig3Targets = []string{"btree", "rbtree", "hashmap"}

// Fig3 measures the number of unique execution paths leading to
// persistency instructions (Fig 3a) and to stores to PM (Fig 3b) as a
// function of workload size (E1 / claim C1: larger workloads are needed
// for coverage).
func Fig3(sizes []int, seed int64) (fig3a, fig3b []Series, err error) {
	for _, g := range []fpt.Granularity{fpt.GranPersistency, fpt.GranStore} {
		var out []Series
		for _, target := range fig3Targets {
			s := Series{Label: target}
			for _, n := range sizes {
				app, err := apps.New(target, apps.Config{PoolSize: poolFor(n)})
				if err != nil {
					return nil, nil, err
				}
				w := workload.Generate(workload.Config{N: n, Seed: seed})
				res, err := core.Analyze(app, w, core.Config{
					Granularity:           g,
					DisableFaultInjection: true,
					DisableTraceAnalysis:  true,
				})
				if err != nil {
					return nil, nil, fmt.Errorf("fig3 %s n=%d: %w", target, n, err)
				}
				s.Points = append(s.Points, Point{X: float64(n), Y: float64(res.Tree.Len())})
			}
			out = append(out, s)
		}
		if g == fpt.GranPersistency {
			fig3a = out
		} else {
			fig3b = out
		}
	}
	return fig3a, fig3b, nil
}

// renderFig3 writes fig3.txt: both panels at fig3Sizes.
func renderFig3(sc Scale) (string, error) {
	fig3a, fig3b, err := Fig3(fig3Sizes, sc.Seed)
	if err != nil {
		return "", err
	}
	return RenderSeries("Unique execution paths to persistency instructions vs workload size (Fig 3a)", "ops", "paths", fig3a) +
		"\n" + RenderSeries("Unique execution paths to PM stores vs workload size (Fig 3b)", "ops", "paths", fig3b), nil
}

// poolFor sizes the simulated pool to the workload.
func poolFor(ops int) int {
	size := ops * 1024
	if size < 1<<20 {
		size = 1 << 20
	}
	if size > 256<<20 {
		size = 256 << 20
	}
	return size
}
