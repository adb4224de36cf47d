package oracle_test

import (
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

func BenchmarkRecoveryOracle(b *testing.B) {
	// One fault injection + recovery round trip, the unit of §4.1.
	app := btree.New(apps.Config{SPT: true, PoolSize: 1 << 20})
	w := workload.Generate(workload.Config{N: 200, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _, err := harness.Execute(app, w, pmem.Options{})
		if err != nil {
			b.Fatal(err)
		}
		img := eng.PrefixImage()
		e2 := pmem.NewEngineFromImage(pmem.Options{}, img)
		if err := app.Recover(e2); err != nil {
			b.Fatal(err)
		}
	}
}
