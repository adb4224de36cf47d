package experiments

import (
	"fmt"
	"strings"
	"time"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/metrics"
	"mumak/internal/pmdk"
	"mumak/internal/pmem"
	"mumak/internal/tools"
	"mumak/internal/tools/agamotto"
	"mumak/internal/tools/pmdebugger"
	"mumak/internal/tools/witcher"
	"mumak/internal/tools/xfdetector"
	"mumak/internal/workload"
)

// ToolRun is one bar of Fig 4 plus its Table 2 row.
type ToolRun struct {
	Tool     string
	Target   string // includes the (SPT) suffix
	Elapsed  time.Duration
	Censored bool // exceeded the budget (the ∞ bars) or OOMed
	OOM      bool
	Bugs     int
	CPU      float64
	RAMx     float64 // peak RAM relative to the vanilla execution
	PMx      float64 // PM relative to the target's own usage
	Err      string
}

// fig4Target is one benchmark configuration of §6.1.
type fig4Target struct {
	name string
	spt  bool
}

func fig4Targets(ver pmdk.Version) []fig4Target {
	if ver == pmdk.V18 {
		// Hashmap Atomic does not operate correctly with PMDK 1.8 and
		// is excluded, as in the paper.
		return []fig4Target{{"btree", false}, {"rbtree", false}, {"btree", true}, {"rbtree", true}}
	}
	return []fig4Target{
		{"btree", false}, {"rbtree", false}, {"hashmap", false},
		{"btree", true}, {"rbtree", true}, {"hashmap", true},
	}
}

// fig4Tools lists the tools of one PMDK version's figure: Mumak, then
// the version's baselines.
func fig4Tools(ver pmdk.Version) []tools.Tool {
	if ver == pmdk.V18 {
		return []tools.Tool{mumak{}, pmdebugger.New(), witcher.New()}
	}
	return []tools.Tool{mumak{}, agamotto.New(), xfdetector.New()}
}

// mumak is Mumak behind the tools.Tool contract, so the evaluation runs
// and measures it exactly as it does every baseline.
type mumak struct{}

// Name implements tools.Tool.
func (mumak) Name() string { return "Mumak" }

// Analyze implements tools.Tool. Mumak keeps no state in PM.
func (mumak) Analyze(app harness.Application, w workload.Workload, cfg tools.Config) (*tools.Result, error) {
	res, err := core.Analyze(app, w, core.Config{Budget: cfg.Budget, Classing: true})
	if err != nil {
		return nil, err
	}
	return &tools.Result{
		Report:       res.Report,
		TimedOut:     res.TimedOut,
		Explored:     res.Injections,
		EngineEvents: res.EngineEvents,
	}, nil
}

// Fig4 runs the §6.1 performance comparison for one PMDK version: Mumak
// and the version's baseline tools over the libpmemobj data stores,
// original and SPT variants (E2 / claim C2), each measured by runTool.
func Fig4(ver pmdk.Version, sc Scale) ([]ToolRun, error) {
	var out []ToolRun
	for _, tgt := range fig4Targets(ver) {
		cfg := apps.Config{Ver: ver, SPT: tgt.spt, PoolSize: poolFor(sc.Ops)}
		w := workload.Generate(workload.Config{N: sc.Ops, Seed: sc.Seed})
		label := tgt.name
		if tgt.spt {
			label += " (SPT)"
		}
		// Vanilla baseline for the relative resource columns.
		vanillaPeak, appPM, err := vanillaFootprint(tgt.name, cfg, w)
		if err != nil {
			return nil, err
		}

		// XFDetector and Witcher are only evaluated on the SPT
		// variants, whose semantics their analyses depend on (§6.1);
		// the other tools run on both.
		for _, tool := range fig4Tools(ver) {
			sptOnly := tool.Name() == "XFDetector" || tool.Name() == "Witcher"
			if sptOnly && !tgt.spt {
				continue
			}
			out = append(out, runTool(tool, tgt.name, label, cfg, w, sc, vanillaPeak, appPM))
		}
	}
	return out, nil
}

func runTool(tool tools.Tool, target, label string, cfg apps.Config, w workload.Workload, sc Scale, vanillaPeak, appPM uint64) ToolRun {
	app, err := apps.New(target, cfg)
	tr := ToolRun{Tool: tool.Name(), Target: label}
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	run := metrics.Start()
	res, err := tool.Analyze(app, w, tools.Config{Budget: sc.Budget, MemBudget: sc.MemBudget})
	run.Stop()
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	u := run.Usage()
	tr.Elapsed = u.Wall
	tr.Censored = res.TimedOut || res.OOM
	tr.OOM = res.OOM
	tr.Bugs = len(res.Report.Bugs())
	tr.CPU = u.CPULoad
	tr.RAMx = u.RAMOverhead(vanillaPeak)
	tr.PMx = pmOverhead(appPM, res.PMExtraBytes)
	return tr
}

func pmOverhead(appPM, extra uint64) float64 {
	if appPM == 0 {
		return 1
	}
	return float64(appPM+extra) / float64(appPM)
}

// vanillaFootprint measures the uninstrumented execution's peak heap and
// PM footprint (distinct stored cache lines).
func vanillaFootprint(target string, cfg apps.Config, w workload.Workload) (heapPeak, pmBytes uint64, err error) {
	app, err := apps.New(target, cfg)
	if err != nil {
		return 0, 0, err
	}
	run := metrics.Start()
	fp := &footprint{lines: map[uint64]struct{}{}}
	_, sig, err := harness.Execute(app, w, pmem.Options{}, fp)
	run.Stop()
	if err != nil {
		return 0, 0, fmt.Errorf("vanilla run of %s: %w", target, err)
	}
	if sig != nil {
		return 0, 0, fmt.Errorf("vanilla run of %s crashed", target)
	}
	return run.Usage().PeakHeapBytes, uint64(len(fp.lines)) * pmem.CacheLineSize, nil
}

// footprint counts distinct stored cache lines.
type footprint struct{ lines map[uint64]struct{} }

// OnEvent implements pmem.Hook.
func (f *footprint) OnEvent(ev *pmem.Event) {
	if ev.Op.Kind() != pmem.KindStore {
		return
	}
	for base := ev.Addr &^ (pmem.CacheLineSize - 1); base < ev.Addr+uint64(ev.Size); base += pmem.CacheLineSize {
		f.lines[base] = struct{}{}
	}
}

// renderFig4 writes fig4a.txt (PMDK 1.6) or fig4b.txt (PMDK 1.8).
func renderFig4(ver pmdk.Version, fig string, sc Scale) (string, error) {
	runs, err := Fig4(ver, sc)
	if err != nil {
		return "", err
	}
	return RenderToolRuns(fmt.Sprintf("Analysis time and resources, PMDK %s (Fig %s + Table 2)", ver, fig), runs), nil
}

// RenderToolRuns prints Fig 4 / Table 2 as an aligned text table.
func RenderToolRuns(title string, runs []ToolRun) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", title)
	fmt.Fprintf(&sb, "%-22s %-14s %12s %6s %6s %6s %6s  %s\n",
		"target", "tool", "time", "bugs", "CPU", "RAMx", "PMx", "status")
	for _, r := range runs {
		status := "ok"
		switch {
		case r.Err != "":
			status = "error: " + r.Err
		case r.OOM:
			status = "OOM (inf)"
		case r.Censored:
			status = "timeout (inf)"
		}
		fmt.Fprintf(&sb, "%-22s %-14s %12s %6d %6.2f %6.1f %6.1f  %s\n",
			r.Target, r.Tool, r.Elapsed.Round(time.Millisecond), r.Bugs, r.CPU, r.RAMx, r.PMx, status)
	}
	return sb.String()
}
