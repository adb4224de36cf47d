package experiments

import (
	"fmt"
	"strings"
	"time"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/workload"
)

// Fig5Targets are the large-codebase targets of §6.3, in paper order.
var Fig5Targets = []string{
	"cmap", "stree", "montage-hashtable", "montage-lfhashtable", "redis", "rocksdb",
}

// Fig5Run is one point of the scalability study.
type Fig5Run struct {
	Target   string
	CodeSize int
	Elapsed  time.Duration
	Bugs     int
	Err      string
}

// Fig5 measures Mumak's analysis time against codebase size (E3 / claim
// C3: analysis time is not proportional to code size).
func Fig5(sc Scale) ([]Fig5Run, error) {
	var out []Fig5Run
	for _, target := range Fig5Targets {
		r := Fig5Run{Target: target}
		size, err := CodeSize(target)
		if err != nil {
			return nil, fmt.Errorf("fig5 code size for %s: %w", target, err)
		}
		r.CodeSize = size
		app, err := apps.New(target, apps.Config{PoolSize: poolFor(sc.Ops)})
		if err != nil {
			return nil, err
		}
		w := workload.Generate(workload.Config{N: sc.Ops, Seed: sc.Seed})
		res, err := core.Analyze(app, w, core.Config{Budget: sc.Budget, Classing: true})
		if err != nil {
			r.Err = err.Error()
			out = append(out, r)
			continue
		}
		r.Elapsed = res.Elapsed
		r.Bugs = len(res.Report.Bugs())
		out = append(out, r)
	}
	return out, nil
}

// RenderFig5 prints the scalability table and the paper's claim check:
// the time/size correlation should be weak.
func RenderFig5(runs []Fig5Run) string {
	var sb strings.Builder
	sb.WriteString("# Mumak analysis time relative to code size (Fig 5)\n")
	fmt.Fprintf(&sb, "%-22s %12s %12s %6s\n", "target", "code (lines)", "time", "bugs")
	for _, r := range runs {
		if r.Err != "" {
			fmt.Fprintf(&sb, "%-22s %12d %12s\n", r.Target, r.CodeSize, "error: "+r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-22s %12d %12s %6d\n",
			r.Target, r.CodeSize, r.Elapsed.Round(time.Millisecond), r.Bugs)
	}
	return sb.String()
}
