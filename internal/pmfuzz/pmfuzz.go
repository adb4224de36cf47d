// Package pmfuzz implements a PMFuzz-style coverage-guided workload
// generator (Liu et al., ASPLOS'21). The paper treats workload
// generation as orthogonal to Mumak and notes the two can be combined
// (§4): PMFuzz mutates seed inputs and prioritises those that reach new
// code paths containing PM accesses. Our fitness signal is exactly
// Mumak's coverage notion — the number of unique failure points in the
// failure point tree — so a fuzzed workload directly enlarges the fault
// injector's search space.
package pmfuzz

import (
	"fmt"
	"math/rand"

	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

// Config tunes the fuzzing loop.
type Config struct {
	// Rounds is the number of mutation rounds (default 16).
	Rounds int
	// MutantsPerRound is how many mutants each round evaluates
	// (default 8).
	MutantsPerRound int
	// Seed drives mutation.
	Seed int64
	// Granularity selects the coverage signal's failure-point
	// definition.
	Granularity fpt.Granularity
}

// Result is the fuzzing outcome.
type Result struct {
	// Best is the highest-coverage workload found.
	Best workload.Workload
	// BestCoverage is its unique-failure-point count.
	BestCoverage int
	// SeedCoverage is the starting workload's count.
	SeedCoverage int
	// Evaluated counts fitness evaluations.
	Evaluated int
}

// Fuzz evolves the seed workload towards PM-path coverage. mk constructs
// a fresh application instance per evaluation (evaluations crash nothing
// but must not share pool state).
func Fuzz(mk func() harness.Application, seed workload.Workload, cfg Config) (*Result, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 16
	}
	if cfg.MutantsPerRound <= 0 {
		cfg.MutantsPerRound = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Best: seed}
	cov, err := coverage(mk(), seed, cfg.Granularity)
	if err != nil {
		return nil, err
	}
	res.SeedCoverage = cov
	res.BestCoverage = cov
	res.Evaluated = 1

	maxLen := len(seed.Ops)*8 + 64
	for range cfg.Rounds {
		for range cfg.MutantsPerRound {
			cand := mutate(rng, res.Best)
			if len(cand.Ops) > maxLen {
				cand.Ops = cand.Ops[:maxLen]
			}
			c, err := coverage(mk(), cand, cfg.Granularity)
			if err != nil {
				continue // a mutant that breaks the target is discarded
			}
			res.Evaluated++
			switch {
			case c > res.BestCoverage:
				res.Best = cand
				res.BestCoverage = c
			case c == res.BestCoverage && len(cand.Ops) > len(res.Best.Ops):
				// Neutral drift towards longer inputs: coverage
				// plateaus (a split or resize needs many more
				// operations than one mutation adds) are crossed by
				// letting equally-covering but larger inputs survive.
				res.Best = cand
			}
		}
	}
	return res, nil
}

// coverage measures a workload's unique-failure-point count: it runs
// Mumak's phase 1 alone, under its sandbox, and counts the tree Mumak
// later injects into. A run the sandbox stopped (a target panic or a
// hang) is an error.
func coverage(app harness.Application, w workload.Workload, g fpt.Granularity) (int, error) {
	res, err := core.Analyze(app, w, core.Config{
		Granularity:           g,
		DisableFaultInjection: true,
		DisableTraceAnalysis:  true,
	})
	if err != nil {
		return 0, err
	}
	if res.TargetPanics+res.TargetHangs > 0 {
		return 0, fmt.Errorf("pmfuzz: the sandbox stopped the target (%d panic(s), %d hang(s))",
			res.TargetPanics, res.TargetHangs)
	}
	return res.Tree.Len(), nil
}

// mutate applies one of PMFuzz's input mutations: splice a hot segment,
// flip operation kinds, widen or narrow the keyspace, or duplicate a
// subsequence (growing structures deeper).
func mutate(rng *rand.Rand, w workload.Workload) workload.Workload {
	ops := make([]workload.Op, len(w.Ops))
	copy(ops, w.Ops)
	if len(ops) == 0 {
		return workload.Workload{Ops: ops, Seed: w.Seed}
	}
	switch rng.Intn(6) {
	case 0: // flip kinds in a window
		start := rng.Intn(len(ops))
		end := start + rng.Intn(len(ops)-start)
		for i := start; i < end; i++ {
			ops[i].Kind = workload.Kind(rng.Intn(3))
		}
	case 1: // rescale keys in a window (narrower keyspace = more collisions)
		div := uint64(rng.Intn(7) + 2)
		start := rng.Intn(len(ops))
		for i := start; i < len(ops); i++ {
			ops[i].Key /= div
		}
	case 2: // duplicate a subsequence
		start := rng.Intn(len(ops))
		n := rng.Intn(len(ops)-start)/2 + 1
		dup := append([]workload.Op{}, ops[start:start+n]...)
		ops = append(ops[:start+n], append(dup, ops[start+n:]...)...)
	case 3: // shift keys (touch a fresh region)
		delta := rng.Uint64() % 1024
		start := rng.Intn(len(ops))
		for i := start; i < len(ops); i++ {
			ops[i].Key += delta
		}
	case 4: // randomise keys in a window (diversify the key set)
		start := rng.Intn(len(ops))
		end := start + rng.Intn(len(ops)-start)
		for i := start; i < end; i++ {
			ops[i].Key = rng.Uint64() % 4096
		}
	case 5: // append fresh operations (grow the input)
		n := rng.Intn(len(ops)/2+8) + 4
		for i := 0; i < n; i++ {
			ops = append(ops, workload.Op{
				Kind: workload.Kind(rng.Intn(3)),
				Key:  rng.Uint64() % 4096,
				Val:  rng.Uint64(),
			})
		}
	}
	return workload.Workload{Ops: ops, Seed: w.Seed}
}
