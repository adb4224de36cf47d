package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mumak/internal/apps"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// traceOutput is one traced run: the per-layer metrics, plus the counts
// an untraced Analyze of the same inputs must agree with.
type traceOutput struct {
	Metrics map[string]float64 `json:"metrics"`

	FailurePoints int      `json:"failure_points"`
	Judged        int      `json:"judged"`
	Classes       int      `json:"classes"`
	Rejected      int      `json:"rejected"`
	Findings      []string `json:"findings"`

	UntracedClasses  int      `json:"untraced_classes"`
	UntracedRejected int      `json:"untraced_rejected"`
	UntracedFindings []string `json:"untraced_findings"`
}

// timedHook measures the time a hook spends in OnEvent. It forwards
// pmem.EngineObserver: the failure-point-tree builder needs the engine
// to stamp leaves, and without the engine classing silently turns off.
type timedHook struct {
	h   pmem.Hook
	dur time.Duration
}

func (t *timedHook) OnEvent(ev *pmem.Event) {
	t0 := time.Now()
	t.h.OnEvent(ev)
	t.dur += time.Since(t0)
}

func (t *timedHook) ObserveEngine(e *pmem.Engine) {
	if eo, ok := t.h.(pmem.EngineObserver); ok {
		eo.ObserveEngine(e)
	}
}

// nopHook calibrates timedHook: its measured time is the wrapper's own
// cost, subtracted from the other hooks' times.
type nopHook struct{}

func (nopHook) OnEvent(*pmem.Event) {}

// resolver is the benchmark's copy of the phase-3 stack-resolution hook:
// it captures the call stack at each flagged instruction counter.
type resolver struct {
	wanted map[uint64][]*report.Finding
	stacks *stack.Table
}

func (r *resolver) OnEvent(ev *pmem.Event) {
	fs, ok := r.wanted[ev.ICount]
	if !ok {
		return
	}
	id := r.stacks.Capture(1)
	for _, f := range fs {
		f.Stack = id
	}
}

// imageKey is a leaf's phase-1 stamp, the key of its equivalence class.
type imageKey struct {
	hash uint64
	size int
}

// tracer runs target executions under the campaign's watchdog bounds.
type tracer struct {
	app       harness.Application
	w         workload.Workload
	stackMode bool
	deadline  time.Time
}

// execute runs one sandboxed execution and fails on any outcome but a
// clean finish or, when wantCrash, an injected crash.
func (tr *tracer) execute(opts pmem.Options, wantCrash bool, hooks ...pmem.Hook) (*pmem.Engine, time.Duration, error) {
	opts.MaxEvents = core.DefaultHangBudget
	opts.Deadline = tr.deadline
	t0 := time.Now()
	eng, out := harness.ExecuteSandboxed(tr.app, tr.w, opts, hooks...)
	d := time.Since(t0)
	switch {
	case out.Err != nil:
		return nil, 0, out.Err
	case out.Panic != nil:
		return nil, 0, fmt.Errorf("target panicked: %v", out.Panic.Value)
	case out.Hang != nil:
		return nil, 0, fmt.Errorf("target stopped by the watchdog: %v", out.Hang)
	case wantCrash != (out.Sig != nil):
		return nil, 0, fmt.Errorf("injected crash fired: %v, want %v", out.Sig != nil, wantCrash)
	}
	return eng, d, nil
}

// phase1Options are the engine options core.Analyze gives the
// instrumented run, with each of the three costed options switchable.
func (tr *tracer) phase1Options(capture, checkpoints, prefixHash bool) pmem.Options {
	opts := pmem.Options{TrackPrefixHash: prefixHash}
	if capture {
		opts.Capture = pmem.CapturePersistency
		opts.Stacks = stack.NewTable()
	}
	if checkpoints && !tr.stackMode {
		opts.CheckpointEvery = core.DefaultCheckpointInterval
	}
	return opts
}

// runTrace re-drives the campaign's stages serially by calling each
// module's public functions, timing each call. Around that pipeline it
// measures the phase-1 option ladder, the hooks' self times, a
// verdict-cache round trip and an untraced serial Analyze.
func runTrace(spec childSpec) (*traceOutput, error) {
	wd, err := lookupWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	w := inputs(spec.Ops, spec.Seed)
	app, err := apps.New(wd.Target, appConfig(wd, spec.PoolMB))
	if err != nil {
		return nil, err
	}
	meta := campaignMeta(wd, spec.Ops, spec.Seed)
	var warm []campaign.CacheEntry
	if spec.VerdictFile != "" {
		if warm, err = campaign.LoadVerdictCache(spec.VerdictFile, meta); err != nil {
			return nil, err
		}
	}
	m := map[string]float64{}
	out := &traceOutput{Metrics: m}

	// The untraced reference: the same campaign, serial, in this process.
	cfg := analyzeConfig(wd, 1, warm, true)
	t0 := time.Now()
	ref, err := core.Analyze(app, w, cfg)
	untraced := time.Since(t0)
	if err != nil {
		return nil, err
	}
	out.Judged = ref.Injections
	out.UntracedClasses = ref.EquivClasses
	out.UntracedRejected = rejectedFindings(ref.Report)
	out.UntracedFindings = signature(ref.Report)

	// Verdict-cache round trip of the reference's verdicts.
	vc := filepath.Join(spec.Dir, wd.Name+"-trace.vc")
	t0 = time.Now()
	if err := campaign.SaveVerdictCache(vc, meta, ref.VerdictCache); err != nil {
		return nil, err
	}
	m["campaign.verdict_save_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	entries, err := campaign.LoadVerdictCache(vc, meta)
	m["campaign.verdict_load_s"] = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	m["campaign.verdict_entries"] = float64(len(entries))
	if err := os.Remove(vc); err != nil {
		return nil, err
	}

	tr := &tracer{app: app, w: w, stackMode: wd.Stack, deadline: time.Now().Add(cliBudget)}
	if err := tr.ladder(m); err != nil {
		return nil, err
	}
	if err := tr.hookSelfTimes(m, cfg); err != nil {
		return nil, err
	}

	runtime.GC()
	start := time.Now()
	if err := tr.pipeline(m, cfg, spec.VerdictFile, meta, out); err != nil {
		return nil, err
	}
	pipeline := time.Since(start).Seconds()

	stages := 0.0
	for _, name := range []string{
		"harness.phase1_s", "core.plan_s", "campaign.warm_load_s",
		"pmem.replay_s", "harness.reexec_s", "pmem.key_hash_s", "pmem.image_s",
		"pmem.recovery_engine_s", "oracle.check_s",
		"core.finalize_s", "harness.resolve_s", "report.render_s",
	} {
		stages += m[name]
	}
	m["trace.pipeline_s"] = pipeline
	m["trace.coverage"] = stages / pipeline
	m["trace.overhead"] = pipeline / untraced.Seconds()
	m["harness.slowdown"] = m["harness.phase1_s"] / m["apps.native_s"]
	m["pmem.ns_per_event"] = m["harness.phase1_s"] * 1e9 / m["pmem.events"]
	m["oracle.recover_self_s"] = m["oracle.check_s"] - m["pmem.recovery_engine_s"]
	return out, nil
}

// ladderRounds is how often each rung of the option ladder runs. A rung
// counts its fastest run, so that host noise rarely turns an option's
// cost negative.
const ladderRounds = 3

// ladder times the instrumented run with its options switched on one at
// a time, after a native run with none; each option's cost is the
// difference from the rung below. The rungs run round-robin, so that
// host drift spreads over all of them.
func (tr *tracer) ladder(m map[string]float64) error {
	rungs := []struct {
		name                string
		capture, ckpt, hash bool
	}{
		{"apps.native_s", false, false, false},
		{"pmem.capture_s", true, false, false},
		{"pmem.checkpoint_record_s", true, true, false},
		{"pmem.prefix_hash_s", true, true, true},
	}
	best := make([]time.Duration, len(rungs))
	for round := 0; round < ladderRounds; round++ {
		for i, rung := range rungs {
			var d time.Duration
			var err error
			switch {
			case i == 0:
				t0 := time.Now()
				var sig *pmem.CrashSignal
				_, sig, err = harness.Execute(tr.app, tr.w, pmem.Options{})
				d = time.Since(t0)
				if err == nil && sig != nil {
					err = sig
				}
			case rung.ckpt && !rungs[i-1].ckpt && tr.stackMode:
				// Stack mode records no checkpoints: the rung would
				// repeat the one below.
				best[i] = best[i-1]
				continue
			default:
				_, d, err = tr.execute(tr.phase1Options(rung.capture, rung.ckpt, rung.hash), false)
			}
			if err != nil {
				return fmt.Errorf("%s rung: %w", rung.name, err)
			}
			if round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	m[rungs[0].name] = best[0].Seconds()
	for i := 1; i < len(rungs); i++ {
		m[rungs[i].name] = (best[i] - best[i-1]).Seconds()
	}
	return nil
}

// hookSelfTimes runs the instrumented run once more with each hook in a
// timing wrapper.
func (tr *tracer) hookSelfTimes(m map[string]float64, cfg core.Config) error {
	opts := tr.phase1Options(true, true, true)
	tree := fpt.New(opts.Stacks)
	builder := &timedHook{h: fpt.NewBuilder(tree, cfg.Granularity)}
	analyzer := &timedHook{h: core.NewAnalyzer(cfg)}
	nop := &timedHook{h: nopHook{}}
	if _, _, err := tr.execute(opts, false, builder, analyzer, nop); err != nil {
		return fmt.Errorf("timed-hook run: %w", err)
	}
	for _, leaf := range tree.Leaves() {
		if leaf.ImageSize == 0 {
			return fmt.Errorf("timed-hook run left failure point #%d unstamped", leaf.ID)
		}
	}
	m["fpt.builder_s"] = (builder.dur - nop.dur).Seconds()
	m["core.analyzer_s"] = (analyzer.dur - nop.dur).Seconds()
	return nil
}

// pipeline mirrors core.Analyze serially: phase 1, one replay and one
// recovery check per equivalence class in FirstICount order (classes a
// warm verdict file already judged are reused), then phase 3.
func (tr *tracer) pipeline(m map[string]float64, cfg core.Config, verdictFile string,
	meta campaign.Meta, out *traceOutput) error {

	// Phase 1: the instrumented run with the failure-point-tree builder
	// and the online analyzer attached.
	opts := tr.phase1Options(true, true, true)
	stacks := opts.Stacks
	tree := fpt.New(stacks)
	analyzer := core.NewAnalyzer(cfg)
	eng, d, err := tr.execute(opts, false, fpt.NewBuilder(tree, cfg.Granularity), analyzer)
	if err != nil {
		return fmt.Errorf("instrumented run: %w", err)
	}
	m["harness.phase1_s"] = d.Seconds()
	m["pmem.events"] = float64(eng.Events())
	ckpts := eng.Checkpoints()
	m["pmem.checkpoints"], m["pmem.checkpoint_mb"] = 0, 0
	if ckpts != nil {
		m["pmem.checkpoints"] = float64(ckpts.Count())
		m["pmem.checkpoint_mb"] = float64(ckpts.Bytes()) / (1 << 20)
	}

	// The class plan: one representative per phase-1 stamp.
	t0 := time.Now()
	tree.Freeze()
	leaves := tree.LeavesByICount()
	classSize := map[imageKey]int{}
	var reps []*fpt.Leaf
	for _, leaf := range leaves {
		if leaf.ImageSize == 0 {
			return fmt.Errorf("failure point #%d is unstamped", leaf.ID)
		}
		k := imageKey{leaf.ImageHash, leaf.ImageSize}
		if classSize[k] == 0 {
			reps = append(reps, leaf)
		}
		classSize[k]++
	}
	m["core.plan_s"] = time.Since(t0).Seconds()
	out.FailurePoints = len(leaves)
	out.Classes = len(reps)
	m["fpt.failure_points"] = float64(len(leaves))
	m["fpt.classes"] = float64(len(reps))
	m["fpt.class_ratio"] = float64(len(reps)) / float64(len(leaves))

	verdicts := map[imageKey]oracle.Verdict{}
	if verdictFile != "" {
		t0 = time.Now()
		entries, err := campaign.LoadVerdictCache(verdictFile, meta)
		if err != nil {
			return err
		}
		for _, e := range entries {
			verdicts[imageKey{e.Hash, e.Size}] = oracle.Verdict(e.Verdict)
		}
		m["campaign.warm_load_s"] = time.Since(t0).Seconds()
	}

	// Phase 2.
	var checkLat, leafLat []float64
	var replay, reexec, keyHash, image, recEngine, check time.Duration
	var gapEvents, reexecEvents uint64
	watchdog := oracle.Watchdog{MaxEvents: core.DefaultHangBudget, Timeout: core.DefaultRecoveryTimeout}
	for _, leaf := range reps {
		k := imageKey{leaf.ImageHash, leaf.ImageSize}
		if _, ok := verdicts[k]; ok {
			continue
		}
		var crashed *pmem.Engine
		var dReplay time.Duration
		if tr.stackMode {
			inj := &fpt.Injector{Target: leaf, Granularity: cfg.Granularity}
			crashed, dReplay, err = tr.execute(pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks}, true, inj)
			if err != nil {
				return fmt.Errorf("stack-mode replay of failure point #%d: %w", leaf.ID, err)
			}
			reexec += dReplay
			reexecEvents += crashed.Events()
		} else {
			t0 = time.Now()
			var gap uint64
			crashed, gap, err = ckpts.ReplayTo(leaf.FirstICount, tr.deadline)
			dReplay = time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay of failure point #%d: %w", leaf.ID, err)
			}
			replay += dReplay
			gapEvents += gap
		}

		t0 = time.Now()
		hash := crashed.PrefixImageHash()
		dHash := time.Since(t0)
		if hash != leaf.ImageHash {
			return fmt.Errorf("failure point #%d: crash image hash %x differs from its phase-1 stamp %x", leaf.ID, hash, leaf.ImageHash)
		}
		t0 = time.Now()
		img := crashed.PrefixImage()
		dImage := time.Since(t0)
		// The recovery engine is built once more on its own to time it.
		// Which build comes first alternates: the earlier one more often
		// faults in fresh heap pages.
		buildEngine := func() {
			t0 := time.Now()
			pmem.NewEngineFromImage(pmem.Options{}, img)
			recEngine += time.Since(t0)
		}
		if len(checkLat)%2 == 0 {
			buildEngine()
		}
		t0 = time.Now()
		o := oracle.CheckBounded(tr.app, img, watchdog)
		dCheck := time.Since(t0)
		if len(checkLat)%2 == 1 {
			buildEngine()
		}

		keyHash += dHash
		image += dImage
		check += dCheck
		verdicts[k] = o.Verdict
		checkLat = append(checkLat, dCheck.Seconds()*1e3)
		leafLat = append(leafLat, (dReplay+dHash+dImage+dCheck).Seconds()*1e3)
	}
	m["pmem.replay_s"] = replay.Seconds()
	m["pmem.replay_gap_events"] = float64(gapEvents)
	m["harness.reexec_s"] = reexec.Seconds()
	m["harness.reexec_events"] = float64(reexecEvents)
	m["pmem.key_hash_s"] = keyHash.Seconds()
	m["pmem.image_s"] = image.Seconds()
	m["pmem.recovery_engine_s"] = recEngine.Seconds()
	m["oracle.check_s"] = check.Seconds()
	m["oracle.checks"] = float64(len(checkLat))
	m["oracle.check_p50_ms"] = percentile(checkLat, 0.5)
	m["oracle.check_p90_ms"] = percentile(checkLat, 0.9)
	m["core.leaf_p50_ms"] = percentile(leafLat, 0.5)
	m["core.leaf_p90_ms"] = percentile(leafLat, 0.9)
	m["core.verdict_reuse"] = float64(len(leaves)-len(checkLat)) / float64(len(leaves))

	// Phase 3.
	t0 = time.Now()
	findings := analyzer.Finalize()
	m["core.finalize_s"] = time.Since(t0).Seconds()
	m["harness.resolve_s"] = 0
	if len(findings) > 0 {
		wanted := make(map[uint64][]*report.Finding, len(findings))
		for _, f := range findings {
			f.Stack = stack.NoID
			wanted[f.ICount] = append(wanted[f.ICount], f)
		}
		_, d, err := tr.execute(pmem.Options{}, false, &resolver{wanted: wanted, stacks: stacks})
		if err != nil {
			return fmt.Errorf("stack resolution: %w", err)
		}
		m["harness.resolve_s"] = d.Seconds()
	}

	t0 = time.Now()
	rep := &report.Report{Target: tr.app.Name(), Tool: "Mumak", Stacks: stacks}
	for _, leaf := range leaves {
		switch verdicts[imageKey{leaf.ImageHash, leaf.ImageSize}] {
		case oracle.Consistent:
			continue
		case oracle.Hung:
			rep.Add(report.Finding{Kind: report.RecoveryHang, ICount: leaf.FirstICount, Stack: leaf.Stack})
		default:
			rep.Add(report.Finding{Kind: report.CrashConsistency, ICount: leaf.FirstICount, Stack: leaf.Stack})
		}
		out.Rejected++
	}
	for _, f := range findings {
		if !f.Kind.IsWarning() {
			rep.Add(*f)
		}
	}
	_ = rep.Format(false)
	if err := rep.WriteJSON(io.Discard, false); err != nil {
		return err
	}
	m["report.render_s"] = time.Since(t0).Seconds()
	out.Findings = signature(rep)
	m["report.findings"] = float64(len(out.Findings))
	m["oracle.rejected"] = float64(out.Rejected)
	return nil
}

// percentile interpolates linearly between the closest ranks; zero for
// no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
