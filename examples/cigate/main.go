// CI gate: the paper's motivating deployment — Mumak is fast and
// black-box enough to run inside a continuous-integration pipeline, so a
// crash-consistency regression fails the build before it merges.
//
// This example analyses a matrix of targets with a per-target time
// budget, prints one summary line each, and exits non-zero if any
// target has bugs — exactly the shape of a CI job.
//
//	go run ./examples/cigate
package main

import (
	"fmt"
	"os"
	"time"

	"mumak/internal/apps"
	_ "mumak/internal/apps/btree"
	_ "mumak/internal/apps/cceh"
	_ "mumak/internal/apps/hashatomic"
	_ "mumak/internal/apps/levelhash"
	_ "mumak/internal/apps/wort"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/workload"
)

// job is one CI matrix entry. The wort entry carries a seeded regression
// so the gate has something to catch.
type job struct {
	target string
	cfg    apps.Config
}

func main() {
	jobs := []job{
		{"btree", apps.Config{SPT: true, PoolSize: 8 << 20}},
		{"hashmap", apps.Config{PoolSize: 8 << 20}},
		{"cceh", apps.Config{PoolSize: 8 << 20}},
		{"levelhash", apps.Config{PoolSize: 8 << 20, WithRecovery: true}},
		{"wort", apps.Config{PoolSize: 8 << 20, Bugs: bugs.Enable("wort/child-publish-early")}},
	}
	w := workload.Generate(workload.Config{N: 1000, Seed: 2026})
	failed := 0
	for _, j := range jobs {
		app, err := apps.New(j.target, j.cfg)
		if err != nil {
			fmt.Printf("FAIL  %-12s %v\n", j.target, err)
			failed++
			continue
		}
		res, err := core.Analyze(app, w, core.Config{Budget: time.Minute, Classing: true})
		if err != nil {
			fmt.Printf("FAIL  %-12s %v\n", j.target, err)
			failed++
			continue
		}
		if n := len(res.Report.Bugs()); n > 0 {
			fmt.Printf("FAIL  %-12s %d bug(s) in %s\n", j.target, n, res.Elapsed.Round(time.Millisecond))
			failed++
			continue
		}
		fmt.Printf("ok    %-12s clean in %s (%d failure points)\n",
			j.target, res.Elapsed.Round(time.Millisecond), res.Tree.Len())
	}
	if failed > 0 {
		fmt.Printf("\n%d target(s) failed the crash-consistency gate\n", failed)
		os.Exit(1)
	}
	fmt.Println("\nall targets passed the crash-consistency gate")
}
