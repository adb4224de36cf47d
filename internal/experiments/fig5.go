package experiments

import (
	"fmt"
	"strings"
	"time"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/workload"
)

// fig5Targets are the large-codebase targets of §6.3, in paper order,
// each with the source directories of the application and the PM
// dependencies it is built on, the paper's "target and their PM
// dependencies (for example, PMDK)".
var fig5Targets = []struct {
	name string
	dirs []string
}{
	{"cmap", []string{"internal/apps/pmemkv", "internal/pmdk"}},
	{"stree", []string{"internal/apps/pmemkv", "internal/pmdk"}},
	{"montage-hashtable", []string{"internal/apps/montageht", "internal/montage"}},
	{"montage-lfhashtable", []string{"internal/apps/montageht", "internal/montage"}},
	{"redis", []string{"internal/apps/redis", "internal/pmdk"}},
	{"rocksdb", []string{"internal/apps/rocksdb", "internal/pmdk"}},
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
	for _, target := range fig5Targets {
		r := Fig5Run{Target: target.name}
		size, err := codeSize(target.dirs)
		if err != nil {
			return nil, fmt.Errorf("fig5 code size for %s: %w", target.name, err)
		}
		r.CodeSize = size
		app, err := apps.New(target.name, apps.Config{PoolSize: poolFor(sc.Ops)})
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

// renderFig5 writes fig5.txt: the scalability table.
func renderFig5(sc Scale) (string, error) {
	runs, err := Fig5(sc)
	if err != nil {
		return "", err
	}
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
	return sb.String(), nil
}
