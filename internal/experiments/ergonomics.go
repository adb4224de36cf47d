package experiments

import (
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
	w := workload.Generate(workload.Config{N: sc.Ops, Seed: sc.Seed, Keyspace: uint64(sc.Ops / 3)})

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
