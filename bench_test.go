// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§6), plus the ablation benches for the design
// decisions DESIGN.md calls out and microbenchmarks of the hot
// substrate paths.
//
// The benches run at experiments.Quick scale; the cmd/ drivers run the
// same generators at the larger default scale. Reported custom metrics
// carry the figure data (seconds per tool, failure-point counts,
// coverage percentages) so `go test -bench=. -benchmem` regenerates
// every result in one pass.
package mumak_test

import (
	"fmt"
	"testing"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest/imagedup"
	_ "mumak/internal/apps/art"
	"mumak/internal/apps/btree"
	_ "mumak/internal/apps/cceh"
	_ "mumak/internal/apps/fastfair"
	_ "mumak/internal/apps/hashatomic"
	"mumak/internal/apps/levelhash"
	_ "mumak/internal/apps/montageht"
	_ "mumak/internal/apps/pmemkv"
	_ "mumak/internal/apps/rbtree"
	_ "mumak/internal/apps/redis"
	_ "mumak/internal/apps/rocksdb"
	_ "mumak/internal/apps/wort"
	"mumak/internal/core"
	"mumak/internal/experiments"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmdk"
	"mumak/internal/pmem"
	"mumak/internal/pmfuzz"
	"mumak/internal/stack"
	"mumak/internal/trace"
	"mumak/internal/workload"
)

// --- Figure 3: unique execution paths vs workload size (E1 / C1).

func BenchmarkFig3Coverage(b *testing.B) {
	sizes := experiments.Fig3Sizes(100) // 30 .. 3000 ops
	for i := 0; i < b.N; i++ {
		fig3a, fig3b, err := experiments.Fig3(sizes, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range fig3a {
				last := s.Points[len(s.Points)-1]
				b.ReportMetric(last.Y, "fig3a_paths_"+s.Label)
			}
			for _, s := range fig3b {
				last := s.Points[len(s.Points)-1]
				b.ReportMetric(last.Y, "fig3b_paths_"+s.Label)
			}
		}
	}
}

// --- Figure 4 + Table 2: cross-tool analysis time and resources (E2 / C2).

func benchFig4(b *testing.B, ver pmdk.Version, tag string) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.Fig4(ver, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		for _, r := range runs {
			name := fmt.Sprintf("%s_%s_%s_sec", tag, sanitize(r.Tool), sanitize(r.Target))
			secs := r.Elapsed.Seconds()
			if r.Censored {
				// The ∞ bars: report the budget as a floor.
				secs = sc.Budget.Seconds()
			}
			b.ReportMetric(secs, name)
		}
	}
}

func BenchmarkFig4aPMDK16(b *testing.B) { benchFig4(b, pmdk.V16, "fig4a") }
func BenchmarkFig4bPMDK18(b *testing.B) { benchFig4(b, pmdk.V18, "fig4b") }

func BenchmarkTable2Resources(b *testing.B) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.Fig4(pmdk.V16, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		for _, r := range runs {
			base := fmt.Sprintf("t2_%s_%s_", sanitize(r.Tool), sanitize(r.Target))
			b.ReportMetric(r.CPU, base+"cpu")
			b.ReportMetric(r.RAMx, base+"ramx")
			b.ReportMetric(r.PMx, base+"pmx")
		}
	}
}

// --- §6.2: bug coverage against the seeded registry.

func BenchmarkCoverage(b *testing.B) {
	sc := experiments.Quick()
	sc.Ops = 600
	for i := 0; i < b.N; i++ {
		res, err := experiments.Coverage(sc, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Percent()), "coverage_pct")
			b.ReportMetric(float64(res.FoundCorrectness), "correctness_found")
			b.ReportMetric(float64(res.FoundPerformance), "performance_found")
		}
	}
}

func BenchmarkCoverageLevelHashNoRecovery(b *testing.B) {
	// The §6.2 oracle story: Level Hashing without its added recovery.
	sc := experiments.Quick()
	sc.Ops = 600
	for i := 0; i < b.N; i++ {
		res, err := experiments.Coverage(sc, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			found := 0
			for _, o := range res.Outcomes {
				if o.Bug.App == "levelhash" && o.Bug.Correctness() && o.Found {
					found++
				}
			}
			b.ReportMetric(float64(found), "levelhash_found_without_recovery")
		}
	}
}

// --- Figure 5: scalability over large codebases (E3 / C3).

func BenchmarkFig5Scalability(b *testing.B) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.Fig5(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		for _, r := range runs {
			b.ReportMetric(r.Elapsed.Seconds(), "fig5_"+sanitize(r.Target)+"_sec")
			b.ReportMetric(float64(r.CodeSize), "fig5_"+sanitize(r.Target)+"_loc")
		}
	}
}

// --- §6.4: the four new bugs.

func BenchmarkNewBugs(b *testing.B) {
	sc := experiments.Quick()
	sc.Ops = 3000
	for i := 0; i < b.N; i++ {
		runs, err := experiments.NewBugs(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			found := 0
			for _, r := range runs {
				if r.Found {
					found++
				}
			}
			b.ReportMetric(float64(found), "newbugs_found_of_4")
		}
	}
}

// --- Ablations (DESIGN.md decisions).

// BenchmarkAblationGranularity compares the failure-point search space
// at store vs persistency-instruction granularity (decision 1).
func BenchmarkAblationGranularity(b *testing.B) {
	w := workload.Generate(workload.Config{N: 1000, Seed: 42})
	for _, g := range []fpt.Granularity{fpt.GranPersistency, fpt.GranStore} {
		name := "persistency"
		if g == fpt.GranStore {
			name = "store"
		}
		b.Run(name, func(b *testing.B) {
			var leaves int
			for i := 0; i < b.N; i++ {
				res, err := core.Analyze(btree.New(apps.Config{SPT: true, PoolSize: 4 << 20}), w,
					core.Config{Granularity: g, DisableTraceAnalysis: true, DisableFaultInjection: true})
				if err != nil {
					b.Fatal(err)
				}
				leaves = res.Tree.Len()
			}
			b.ReportMetric(float64(leaves), "failure_points")
		})
	}
}

// BenchmarkAblationPhases isolates the two pipeline phases (the
// two-pronged design of §4).
func BenchmarkAblationPhases(b *testing.B) {
	w := workload.Generate(workload.Config{N: 1000, Seed: 42})
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"fault-injection-only", core.Config{DisableTraceAnalysis: true}},
		{"trace-analysis-only", core.Config{DisableFaultInjection: true}},
		{"both", core.Config{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(btree.New(apps.Config{SPT: true, PoolSize: 4 << 20}), w, tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel fault-injection campaign.

// BenchmarkParallelInjection measures the injection-phase wall clock of
// the counter-mode campaign as the worker pool widens. Counter-mode
// replays are independent (private engines, deterministic workload), so
// the phase should scale near-linearly; the reported inject_sec metric
// is the phase time alone, excluding the serial instrumented run.
func BenchmarkParallelInjection(b *testing.B) {
	targets := []struct {
		name string
		mk   func() harness.Application
		w    workload.Workload
	}{
		{
			name: "btree",
			mk:   func() harness.Application { return btree.New(apps.Config{SPT: true, PoolSize: 4 << 20}) },
			w:    workload.Generate(workload.Config{N: 1500, Seed: 42}),
		},
		{
			name: "levelhash",
			mk:   func() harness.Application { return levelhash.New(apps.Config{PoolSize: 4 << 20, WithRecovery: true}) },
			w:    workload.Generate(workload.Config{N: 1500, Seed: 42}),
		},
	}
	for _, tgt := range targets {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers-%d", tgt.name, workers), func(b *testing.B) {
				var inject time.Duration
				for i := 0; i < b.N; i++ {
					res, err := core.Analyze(tgt.mk(), tgt.w,
						core.Config{DisableTraceAnalysis: true, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					inject += res.InjectTime
				}
				b.ReportMetric(inject.Seconds()/float64(b.N), "inject_sec")
			})
		}
	}
}

// BenchmarkStackInjectionParallel measures the injection-phase wall
// clock of the stack-mode campaign as the worker pool widens. Since the
// immutable-FPT refactor, stack mode fans its per-leaf targeted replays
// across the same bounded worker pool counter mode uses; each replay is
// independent (private engine, targeted injector, deterministic
// workload), so the phase should scale with available cores. Alongside
// inject_sec the bench reports utilization — worker busy time over
// phase wall time — which shows the fan-out working even on hosts whose
// core count caps the wall-clock speedup.
func BenchmarkStackInjectionParallel(b *testing.B) {
	targets := []struct {
		name string
		mk   func() harness.Application
		w    workload.Workload
	}{
		{
			name: "btree",
			mk:   func() harness.Application { return btree.New(apps.Config{SPT: true, PoolSize: 4 << 20}) },
			w:    workload.Generate(workload.Config{N: 1500, Seed: 42}),
		},
		{
			name: "levelhash",
			mk:   func() harness.Application { return levelhash.New(apps.Config{PoolSize: 4 << 20, WithRecovery: true}) },
			w:    workload.Generate(workload.Config{N: 1500, Seed: 42}),
		},
	}
	for _, tgt := range targets {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers-%d", tgt.name, workers), func(b *testing.B) {
				var inject, busy time.Duration
				for i := 0; i < b.N; i++ {
					res, err := core.Analyze(tgt.mk(), tgt.w,
						core.Config{StackMode: true, DisableTraceAnalysis: true, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					inject += res.InjectTime
					busy += res.WorkerBusy
				}
				b.ReportMetric(inject.Seconds()/float64(b.N), "inject_sec")
				if inject > 0 {
					b.ReportMetric(float64(busy)/float64(inject), "utilization")
				}
			})
		}
	}
}

// --- Substrate microbenchmarks.

func BenchmarkEngineStore64(b *testing.B) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Store64(uint64(i%(1<<17))*8, uint64(i))
	}
}

func BenchmarkEnginePersistCycle(b *testing.B) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%(1<<14)) * 64
		e.Store64(addr, uint64(i))
		e.CLWB(addr)
		e.SFence()
	}
}

func BenchmarkEngineWithRecorder(b *testing.B) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 20})
	rec := trace.NewRecorder()
	e.AttachHook(rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Store64(uint64(i%(1<<17))*8, uint64(i))
	}
}

func BenchmarkStackCapture(b *testing.B) {
	tbl := stack.NewTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Capture(0)
	}
}

func BenchmarkFPTInsertLookup(b *testing.B) {
	st := stack.NewTable()
	tree := fpt.New(st)
	ids := make([]stack.ID, 256)
	for i := range ids {
		ids[i] = st.Intern([]uintptr{uintptr(i), uintptr(i >> 2), 7, 9})
		tree.Insert(ids[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree.Lookup(ids[i%256]) == nil {
			b.Fatal("lost leaf")
		}
	}
}

func BenchmarkTraceAnalysisThroughput(b *testing.B) {
	// Measure the streaming §4.2 analysis, which runs inline with the
	// instrumented execution and never materialises the trace.
	app := btree.New(apps.Config{SPT: true, PoolSize: 4 << 20})
	w := workload.Generate(workload.Config{N: 2000, Seed: 42})
	b.ResetTimer()
	var peakState uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(app, w, core.Config{DisableFaultInjection: true})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.TraceLen))
		peakState = res.AnalyzerPeakStateBytes
	}
	b.ReportMetric(float64(peakState), "peak_state_bytes")
}

func BenchmarkTraceAnalysisStateScaling(b *testing.B) {
	// The online analyzer's working set must be proportional to live
	// cache lines, not trace length: growing the workload 4x grows the
	// analysed event count but must leave peak_state_bytes flat (compare
	// the metric across sub-benchmarks; trace_records grows instead).
	for _, n := range []int{2000, 8000} {
		n := n
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			app := btree.New(apps.Config{SPT: true, PoolSize: 16 << 20})
			w := workload.Generate(workload.Config{N: n, Seed: 42, Keyspace: 500})
			b.ResetTimer()
			var peakState uint64
			var records int
			for i := 0; i < b.N; i++ {
				res, err := core.Analyze(app, w, core.Config{DisableFaultInjection: true})
				if err != nil {
					b.Fatal(err)
				}
				peakState = res.AnalyzerPeakStateBytes
				records = res.TraceLen
			}
			b.ReportMetric(float64(peakState), "peak_state_bytes")
			b.ReportMetric(float64(records), "trace_records")
		})
	}
}

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

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkAblationEADR compares analysis under the classic ADR domain
// and the extended eADR domain (§4.3).
func BenchmarkAblationEADR(b *testing.B) {
	w := workload.Generate(workload.Config{N: 1000, Seed: 42})
	for _, eadr := range []bool{false, true} {
		name := "adr"
		if eadr {
			name = "eadr"
		}
		b.Run(name, func(b *testing.B) {
			var bugsFound int
			for i := 0; i < b.N; i++ {
				res, err := core.Analyze(btree.New(apps.Config{SPT: true, PoolSize: 4 << 20}), w,
					core.Config{EADR: eadr})
				if err != nil {
					b.Fatal(err)
				}
				bugsFound = len(res.Report.Bugs())
			}
			b.ReportMetric(float64(bugsFound), "findings")
		})
	}
}

// BenchmarkPMFuzzCoverageGain measures the coverage-guided workload
// generator (the §4 complementary system).
func BenchmarkPMFuzzCoverageGain(b *testing.B) {
	seed := workload.Generate(workload.Config{N: 60, Seed: 1, Keyspace: 4})
	mk := func() harness.Application { return btree.New(apps.Config{SPT: true, PoolSize: 2 << 20}) }
	for i := 0; i < b.N; i++ {
		res, err := pmfuzz.Fuzz(mk, seed, pmfuzz.Config{Rounds: 8, MutantsPerRound: 6, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.SeedCoverage), "seed_paths")
			b.ReportMetric(float64(res.BestCoverage), "fuzzed_paths")
		}
	}
}

// --- Crash-image dedup cache (DESIGN.md item 11).

// BenchmarkCrashImageMaterialisation measures the cost of taking the
// graceful-crash snapshot from a warm engine. The cow variant is the
// engine path: the frozen page table, sharing every page the snapshot
// does not change. The flat variant materialises a private full-pool
// copy each time — the pre-COW cost every snapshot used to pay.
func BenchmarkCrashImageMaterialisation(b *testing.B) {
	for _, poolMB := range []int{1, 4} {
		size := poolMB << 20
		for _, mode := range []string{"cow", "flat"} {
			b.Run(fmt.Sprintf("%s/pool-%dmb", mode, poolMB), func(b *testing.B) {
				e := pmem.NewEngine(pmem.Options{PoolSize: size})
				e.PrefixImage() // establish the snapshot base
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// A handful of persisted lines between snapshots, the
					// shape of consecutive counter-mode failure points.
					for j := 0; j < 4; j++ {
						addr := uint64((i*4+j)%(size/64)) * 64
						e.Store64(addr, uint64(i))
						e.CLWB(addr)
						e.SFence()
					}
					img := e.PrefixImage()
					if mode == "flat" {
						img = img.Clone()
					}
					if img.Len() != size {
						b.Fatal("bad image")
					}
				}
			})
		}
	}
}

// BenchmarkInjectionCampaignCached measures verdict reuse on the fixture
// built for it: an imagedup target whose scan phase makes most failure
// points materialise byte-identical crash images. The classed campaign
// (Classing on) and the campaign without any reuse produce identical
// reports; the metrics carry the injection time and the share of
// injections that inherited their class's verdict instead of replaying.
func BenchmarkInjectionCampaignCached(b *testing.B) {
	w := workload.Generate(workload.Config{N: 100, Seed: 42})
	mk := func() harness.Application {
		return imagedup.Custom("imagedup-bench", imagedup.Clean, 6, 40, 1<<20)
	}
	for _, mode := range []struct {
		name     string
		classing bool
	}{{"classed", true}, {"unclassed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var inject time.Duration
			var inherited, injections int
			for i := 0; i < b.N; i++ {
				res, err := core.Analyze(mk(), w, core.Config{
					DisableTraceAnalysis: true,
					Classing:             mode.classing,
				})
				if err != nil {
					b.Fatal(err)
				}
				inject += res.InjectTime
				inherited += res.InheritedVerdicts
				injections += res.Injections
			}
			b.ReportMetric(inject.Seconds()/float64(b.N), "inject_sec")
			if injections > 0 {
				b.ReportMetric(100*float64(inherited)/float64(injections), "inherited_pct")
			}
		})
	}
}
