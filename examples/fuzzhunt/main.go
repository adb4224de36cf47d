// Fuzz-then-hunt: the paper notes that bug coverage is bounded by the
// workload's code coverage and that automatic workload generators like
// PMFuzz are complementary (§4). This example combines the two: a
// PMFuzz-style loop evolves a deliberately poor seed workload towards
// more unique failure points, then Mumak analyses the target with both
// workloads — the seeded resize bug in CCEH is only reachable once the
// fuzzer has grown the workload enough to trigger segment splits.
//
//	go run ./examples/fuzzhunt
package main

import (
	"fmt"
	"log"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/cceh"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/pmfuzz"
	"mumak/internal/workload"
)

func main() {
	cfg := apps.Config{PoolSize: 8 << 20, Bugs: bugs.Enable(cceh.BugDirPublishEarly)}
	mk := func() harness.Application { return cceh.New(cfg) }

	// A weak seed: 40 operations over 6 keys never fills a segment, so
	// the buggy split path never runs.
	seed := workload.Generate(workload.Config{N: 40, Seed: 3, Keyspace: 6})

	analyse := func(label string, w workload.Workload) int {
		res, err := core.Analyze(mk(), w, core.Config{Budget: time.Minute, Classing: true})
		if err != nil {
			log.Fatal(err)
		}
		n := len(res.Report.Bugs())
		fmt.Printf("%-16s %4d ops, %3d failure points -> %d bug(s)\n",
			label, w.Len(), res.Tree.Len(), n)
		return n
	}

	before := analyse("seed workload", seed)

	fz, err := pmfuzz.Fuzz(mk, seed, pmfuzz.Config{Rounds: 24, MutantsPerRound: 8, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fuzzer: coverage %d -> %d unique failure points (%d evaluations)\n",
		fz.SeedCoverage, fz.BestCoverage, fz.Evaluated)

	after := analyse("fuzzed workload", fz.Best)
	if before == 0 && after > 0 {
		fmt.Println("the split-path bug was unreachable until the fuzzer grew the workload")
	}
}
