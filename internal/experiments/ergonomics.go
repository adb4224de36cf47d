package experiments

import (
	"fmt"
	"strings"

	"mumak/internal/apps"
	"mumak/internal/bugs"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/tools"
	"mumak/internal/tools/agamotto"
	"mumak/internal/tools/pmdebugger"
	"mumak/internal/tools/witcher"
	"mumak/internal/tools/xfdetector"
	"mumak/internal/workload"
)

// ErgRow is one measured Table 3 row: the same seeded defect analysed by
// every tool, comparing raw output volume, duplicate filtering and bug
// paths (§6.5).
type ErgRow struct {
	Tool        string
	RawFindings int
	Unique      int
	WithPaths   int // unique findings carrying a complete code path
	OutputBytes int // rendered report size
	Err         string
}

// Ergonomics runs the §6.5 comparison: one buggy target, every tool.
func Ergonomics(sc Scale) ([]ErgRow, error) {
	cfg := apps.Config{PoolSize: 4 << 20, Bugs: bugs.Enable("hashmap/publish-before-init")}
	n := sc.Ops
	if n > 500 {
		n = 500
	}
	w := workload.Generate(workload.Config{N: n, Seed: sc.Seed, Keyspace: uint64(n / 3)})

	var rows []ErgRow
	for _, tool := range []tools.Tool{mumak{}, xfdetector.New(), pmdebugger.New(), agamotto.New(), witcher.New()} {
		app, err := apps.New("hashmap", cfg)
		if err != nil {
			return nil, err
		}
		tres, terr := tool.Analyze(app, w, tools.Config{Budget: sc.Budget, MemBudget: sc.MemBudget})
		if terr != nil {
			rows = append(rows, ErgRow{Tool: tool.Name(), Err: terr.Error()})
			continue
		}
		rows = append(rows, measure(tool.Name(), tres.Report))
	}
	return rows, nil
}

func measure(tool string, rep *report.Report) ErgRow {
	row := ErgRow{Tool: tool, RawFindings: len(rep.Findings)}
	for _, f := range rep.Unique() {
		if f.Kind.IsWarning() {
			continue
		}
		row.Unique++
		if f.Stack != stack.NoID {
			row.WithPaths++
		}
	}
	row.OutputBytes = len(rep.Format(false))
	return row
}

// RenderErgonomics prints the measured §6.5 table.
func RenderErgonomics(rows []ErgRow) string {
	var sb strings.Builder
	sb.WriteString("# Measured ergonomics on one seeded defect (§6.5 / Table 3)\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s %12s %12s  %s\n",
		"tool", "raw", "unique", "with paths", "output (B)", "notes")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&sb, "%-12s %10s %10s %12s %12s  %s\n", r.Tool, "-", "-", "-", "-", r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-12s %10d %10d %12d %12d\n",
			r.Tool, r.RawFindings, r.Unique, r.WithPaths, r.OutputBytes)
	}
	return sb.String()
}
