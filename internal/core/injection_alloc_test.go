package core_test

import (
	"runtime"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// TestInjectionAllocationIndependentOfPoolSize pins the copy-on-write
// pool at the pipeline level: one counter-mode injection of a btree
// campaign — the bounded recovery check of a leaf's phase-1 image,
// recovery engine included — allocates at a 64 MiB pool at most 4 KiB
// more than at an 8 MiB pool. The two-level page table makes a
// recovery engine copy one top-level pointer per 2 MiB of pool; a
// one-level table copied one pointer per 4 KiB page (112 KiB more at the
// larger pool), and copying whole pools would cost 56 MiB more.
func TestInjectionAllocationIndependentOfPoolSize(t *testing.T) {
	w := workload.Generate(workload.Config{N: 1000, Seed: 42})
	perInjection := func(poolMB int) uint64 {
		app, err := apps.New("btree", apps.Config{PoolSize: poolMB << 20, WithRecovery: true})
		if err != nil {
			t.Fatal(err)
		}
		stacks := stack.NewTable()
		tree := fpt.New(stacks)
		builder := fpt.NewBuilder(tree, fpt.GranPersistency)
		builder.KeepImages = true
		_, sig, err := harness.Execute(app, w, pmem.Options{
			Capture: pmem.CapturePersistency, Stacks: stacks, TrackPrefixHash: true,
		}, builder)
		if err != nil || sig != nil {
			t.Fatalf("instrumented run failed: err=%v sig=%v", err, sig)
		}
		leaves := tree.LeavesByICount()
		var picked []*fpt.Leaf
		for i := 0; i < len(leaves); i += len(leaves)/8 + 1 {
			picked = append(picked, leaves[i])
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, leaf := range picked {
			oracle.CheckBounded(app, leaf.Image, oracle.Watchdog{MaxEvents: core.DefaultHangBudget})
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(picked))
	}
	small, large := perInjection(8), perInjection(64)
	const slack = 4 << 10
	if large > small+slack {
		t.Fatalf("one injection allocates %d bytes at a 64 MiB pool and %d at 8 MiB; the difference must stay under %d",
			large, small, slack)
	}
	t.Logf("bytes allocated per injection: %d at 8 MiB, %d at 64 MiB", small, large)
}
