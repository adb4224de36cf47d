package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mumak/internal/apps"
	_ "mumak/internal/apps/btree"
	_ "mumak/internal/apps/rbtree"
	"mumak/internal/bugs"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/pmdk"
	"mumak/internal/workload"
)

// skeletonSeed is the seed whose generated workload fixes every
// workload's operation skeleton (kinds and key order); see inputs.
const skeletonSeed = 42

// CLI defaults a campaign child mirrors: the values one `mumak` run
// gets without flags, except the worker count, which the benchmark pins
// to the two CPUs it runs on.
const (
	cliBudget  = 10 * time.Minute
	cliPoolMB  = 64
	cliWorkers = 2
)

// workloadDef is one benchmark workload. FailurePoints and Findings pin
// the program's output at the default size: inputs gives every seed the
// same control flow, so the pins hold for any seed.
type workloadDef struct {
	Name   string
	Target string
	Ops    int
	SPT    bool
	Stack  bool
	// Warm re-runs the campaign with the verdict-cache file a cold run
	// of the same inputs wrote during set-up.
	Warm bool

	FailurePoints int
	// Findings is the stack-free signature of the report's unique bugs:
	// kind and instruction counter, in report order.
	Findings []string
}

// sptFindings is the signature both btree-spt workloads must report.
var sptFindings = []string{
	"crash-consistency bug@904671", "crash-consistency bug@904674",
	"crash-consistency bug@907950", "crash-consistency bug@907954",
}

// workloads is the benchmark's workload table, in the round-robin order
// of a full run. Why each exists is in README.md.
var workloads = []workloadDef{
	{
		Name: "btree-tx", Target: "btree", Ops: 10000,
		FailurePoints: 162,
		Findings: []string{
			"crash-consistency bug@551650", "crash-consistency bug@551653",
			"crash-consistency bug@551659", "crash-consistency bug@551664",
			"crash-consistency bug@551667",
		},
	},
	{
		Name: "btree-spt", Target: "btree", Ops: 20000, SPT: true,
		FailurePoints: 119,
		Findings:      sptFindings,
	},
	{
		Name: "btree-spt-warm", Target: "btree", Ops: 20000, SPT: true, Warm: true,
		FailurePoints: 119,
		Findings:      sptFindings,
	},
	{
		Name: "rbtree-stack", Target: "rbtree", Ops: 4000, Stack: true,
		FailurePoints: 90,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, wd := range workloads {
		if wd.Name == name {
			return wd, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wd := range workloads {
		names[i] = wd.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs generates the operations one campaign analyses. Seed 42 yields
// exactly the workload `mumak -seed 42` generates. Any other seed keeps
// that operation skeleton and draws fresh key and value bytes: keys go
// through a seed-random strictly increasing map and values are redrawn,
// with zero kept as zero because a zeroed pool reads as zero. The targets
// branch only on key order and equality, so every seed runs the same
// code paths over the same number of failure points: the seed varies
// the data, not the amount of work, and ten seeds measure run-to-run
// noise rather than input-size variation.
func inputs(ops int, seed int64) workload.Workload {
	w := workload.Generate(workload.Config{N: ops, Seed: skeletonSeed})
	if seed == skeletonSeed {
		return w
	}
	const maxGap = 1 << 20
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, len(w.Ops))
	seen := make(map[uint64]bool, len(w.Ops))
	for _, op := range w.Ops {
		if !seen[op.Key] {
			seen[op.Key] = true
			keys = append(keys, op.Key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	remap := make(map[uint64]uint64, len(keys))
	var next uint64
	for _, k := range keys {
		if k != 0 {
			next += 1 + uint64(rng.Intn(maxGap))
		}
		remap[k] = next
	}
	for i := range w.Ops {
		op := &w.Ops[i]
		op.Key = remap[op.Key]
		if op.Val != 0 {
			op.Val = rng.Uint64() | 1
		}
	}
	w.Seed = seed
	return w
}

// appConfig mirrors the CLI's application flags for the workload.
func appConfig(wd workloadDef, poolMB int) apps.Config {
	return apps.Config{
		Ver: pmdk.V16, SPT: wd.SPT, Bugs: bugs.Set{},
		WithRecovery: true, PoolSize: poolMB << 20,
	}
}

// analyzeConfig mirrors the core.Config the CLI builds from its default
// flags; warm and persist stand for -verdict-cache-file.
func analyzeConfig(wd workloadDef, workers int, warm []campaign.CacheEntry, persist bool) core.Config {
	return core.Config{
		Granularity:        fpt.GranPersistency,
		Budget:             cliBudget,
		StackMode:          wd.Stack,
		Workers:            workers,
		ImageCacheSize:     core.DefaultImageCacheSize,
		CheckpointInterval: core.DefaultCheckpointInterval,
		Classing:           true,
		WarmVerdicts:       warm,
		PersistVerdicts:    persist,
		Interrupt:          make(chan struct{}),
	}
}

// campaignMeta is the identity the CLI stamps into a verdict-cache file.
func campaignMeta(wd workloadDef, ops int, seed int64) campaign.Meta {
	return campaign.Meta{Target: wd.Target, Ops: ops, Seed: seed, StackMode: wd.Stack}
}
