// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): workload-size coverage (Fig 3a/3b), the cross-tool
// performance comparison (Fig 4a/4b) with its resource table (Table 2),
// the §6.2 bug-coverage study against the seeded registry, the
// scalability study (Fig 5), the §6.4 new-bug reproductions, Tables 1
// and 3 with the measured §6.5 ergonomics, and two design ablations.
// Files lists the files under results/ that hold them, each at its fixed
// scale; cmd/evaluate writes them.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Scale shrinks the paper's hardware-scale parameters to simulator
// scale. The paper drives 150 000 operations under a 12-hour budget on a
// 128-core Optane machine; the simulator preserves the *shape* of every
// result at a fraction of the size.
type Scale struct {
	// Ops is the workload size standing in for the paper's 150 000.
	Ops int
	// Budget stands in for the 12-hour analysis limit.
	Budget time.Duration
	// MemBudget stands in for the machine's 256 GB.
	MemBudget uint64
	// Seed drives workload generation.
	Seed int64
}

// Quick is the scale of the measured §6.5 rows in tables.txt.
func Quick() Scale {
	return Scale{Ops: 500, Budget: 10 * time.Second, MemBudget: 512 << 20, Seed: 42}
}

// String lists the scale's set fields, as a results file's header
// prints them.
func (sc Scale) String() string {
	var parts []string
	if sc.Ops > 0 {
		parts = append(parts, fmt.Sprintf("%d ops", sc.Ops))
	}
	if sc.Budget > 0 {
		parts = append(parts, fmt.Sprintf("%v budget", sc.Budget))
	}
	if sc.MemBudget > 0 {
		parts = append(parts, fmt.Sprintf("%d MiB memory budget", sc.MemBudget>>20))
	}
	return strings.Join(append(parts, fmt.Sprintf("seed %d", sc.Seed)), ", ")
}

// Series is one plotted line: label plus (x, y) points.
type Series struct {
	Label  string
	Points []Point
}

// Point is one measurement.
type Point struct {
	X float64
	Y float64
	// Censored marks a measurement that exceeded its budget (the ∞
	// bars of Fig 4).
	Censored bool
}

// RenderSeries prints series as an aligned text table, one row per X.
func RenderSeries(title, xName, yName string, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", title)
	fmt.Fprintf(&sb, "%-14s", xName)
	for _, s := range series {
		fmt.Fprintf(&sb, "%18s", s.Label)
	}
	sb.WriteByte('\n')
	if len(series) == 0 {
		return sb.String()
	}
	for i := range series[0].Points {
		fmt.Fprintf(&sb, "%-14.0f", series[0].Points[i].X)
		for _, s := range series {
			if i >= len(s.Points) {
				fmt.Fprintf(&sb, "%18s", "-")
				continue
			}
			p := s.Points[i]
			cell := fmt.Sprintf("%.3f", p.Y)
			if p.Censored {
				cell = "inf(>" + cell + ")"
			}
			fmt.Fprintf(&sb, "%18s", cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
