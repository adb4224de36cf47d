// Montage hunt: the §6.4 story. Montage ships its own persistent
// allocator and does not use PMDK, so every PMDK-annotation-based tool
// is blind to it — but Mumak only needs the binary and a workload. This
// example analyses both Montage hashtables with the two historical bugs
// enabled and prints the reports that correspond to the two upstream
// fixes (urcs-sync/Montage pull #36 and commit 3384e50).
//
//	go run ./examples/montagehunt
package main

import (
	"fmt"
	"log"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/montageht"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

func main() {
	cfg := apps.Config{PoolSize: 16 << 20, MontageBuggy: true}
	targets := []harness.Application{
		montageht.New(cfg),
		montageht.NewLockFree(cfg),
	}
	w := workload.Generate(workload.Config{N: 3000, Seed: 11})
	for _, app := range targets {
		res, err := core.Analyze(app, w, core.Config{Budget: 2 * time.Minute, Classing: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %d unique bug(s) in %s\n",
			app.Name(), len(res.Report.Bugs()), res.Elapsed.Round(time.Millisecond))
		fmt.Print(res.Report.Format(false))
		fmt.Println()
	}
	fmt.Println("Both defects correspond to confirmed-and-fixed upstream Montage bugs;")
	fmt.Println("annotation-based tools cannot analyse Montage at all (it does not use PMDK).")
}
