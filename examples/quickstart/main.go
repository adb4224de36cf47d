// Quickstart: analyse a PM application with Mumak in a dozen lines.
//
// The target is the PMDK btree example data store with one seeded
// crash-consistency defect (the element count is updated with a
// non-transactional persisted store). Mumak needs nothing but the
// application and a workload: no annotations, no library knowledge, no
// test oracles — the recovery procedure is the oracle.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/workload"
)

func main() {
	// The "binary": a PM application. The seeded bug stands in for the
	// defect you are hunting.
	app := btree.New(apps.Config{
		SPT:      true,
		PoolSize: 8 << 20,
		Bugs:     bugs.Enable(btree.BugCountOutsideTx),
	})

	// The workload that drives it: 2000 operations, one third each of
	// puts, gets and deletes.
	w := workload.Generate(workload.Config{N: 2000, Seed: 1})

	// The analysis: fault injection at every unique failure point plus
	// single-pass trace analysis.
	res, err := core.Analyze(app, w, core.Config{Classing: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(res.Report.Format(false))
	fmt.Printf("\ninjected %d faults at %d unique failure points over a %d-record trace\n",
		res.Injections, res.Tree.Len(), res.TraceLen)
}
