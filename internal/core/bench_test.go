package core_test

import (
	"fmt"
	"testing"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest/imagedup"
	"mumak/internal/apps/btree"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

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
	// How the online analyzer's working set grows with the trace: the
	// larger workload analyses about 4x the events (trace_records). The
	// analyzer keeps state for every cache line it has seen and drops
	// none, in one table page per 4 KiB page touched, so
	// peak_state_bytes grows too (23,088 to 32,272 bytes), by less than
	// the trace, as the workload touches more pages; it does not stay
	// flat.
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

// BenchmarkInjectionCampaignCached measures verdict reuse on the fixture
// built for it: an imagedup target whose scan phase makes most failure
// points materialise byte-identical crash images. The classed campaign
// (Classing on) and the campaign without any reuse produce identical
// reports; the metrics carry the campaign's recovery work
// (Result.WorkerBusy: the recovery checks, wherever they ran, and the
// merge loop's verdict reuse) and the share of injections that
// inherited their class's verdict instead of replaying. ns/op is the
// whole Analyze. The inject phase's wall time is no measure of reuse:
// counter-mode checks run beside phase 1, so it is only the tail after
// phase 1.
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
			var busy time.Duration
			var inherited, injections int
			for i := 0; i < b.N; i++ {
				res, err := core.Analyze(mk(), w, core.Config{
					DisableTraceAnalysis: true,
					Classing:             mode.classing,
				})
				if err != nil {
					b.Fatal(err)
				}
				busy += res.WorkerBusy
				inherited += res.InheritedVerdicts
				injections += res.Injections
			}
			b.ReportMetric(busy.Seconds()/float64(b.N), "recovery_sec")
			if injections > 0 {
				b.ReportMetric(100*float64(inherited)/float64(injections), "inherited_pct")
			}
		})
	}
}
