package core_test

import (
	"fmt"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/workload"
)

// eventCounter counts the non-load instructions of an execution: the
// stream the §4.2 analyzer consumes.
type eventCounter struct{ n int }

func (c *eventCounter) OnEvent(ev *pmem.Event) {
	if ev.Op != pmem.OpLoad {
		c.n++
	}
}

// TestStreamingAnalysisIsDeterministic: the analyzer streams the live
// execution and keeps no trace, so its findings are a function of that
// execution alone. Across the whole registry, randomised seeds and both
// persistence domains, two executions of the same workload must give
// identical findings in the same order — warnings included — and the
// analyzer must consume every non-load instruction.
func TestStreamingAnalysisIsDeterministic(t *testing.T) {
	for _, eadr := range []bool{false, true} {
		for _, seed := range []int64{11, 4242} {
			w := workload.Generate(workload.Config{N: 300, Seed: seed, Keyspace: 120,
				PutFrac: 2, GetFrac: 1, DeleteFrac: 1})
			for _, name := range apps.Names() {
				name, eadr, seed := name, eadr, seed
				t.Run(fmt.Sprintf("%s/seed=%d/eadr=%v", name, seed, eadr), func(t *testing.T) {
					cfg := core.Config{EADR: eadr, KeepWarnings: true}
					run := func() []*report.Finding {
						app, err := apps.New(name, apps.Config{SPT: true, PoolSize: 8 << 20, WithRecovery: true})
						if err != nil {
							t.Fatal(err)
						}
						analyzer := core.NewAnalyzer(cfg)
						counter := &eventCounter{}
						_, sig, err := harness.Execute(app, w, pmem.Options{}, analyzer, counter)
						if err != nil {
							t.Fatal(err)
						}
						if sig != nil {
							t.Fatalf("unexpected crash: %v", sig)
						}
						if analyzer.Events() != counter.n {
							t.Fatalf("analyzer saw %d events, the execution emitted %d non-load instructions",
								analyzer.Events(), counter.n)
						}
						return analyzer.Finalize()
					}
					first, second := run(), run()
					if len(first) != len(second) {
						t.Fatalf("first execution gave %d findings, second %d", len(first), len(second))
					}
					for i := range first {
						if *first[i] != *second[i] {
							t.Fatalf("finding %d differs:\n  first:  %+v\n  second: %+v", i, *first[i], *second[i])
						}
					}
				})
			}
		}
	}
}
