// Command bench is the campaign benchmark: it runs Mumak campaigns the
// way the mumak CLI does, on four workloads that load different layers,
// prints every end-to-end metric with its unit, median, quartiles and
// sample count, checks the reports, and breaks a traced run down by
// layer. README.md describes the workloads, the metrics and the
// comparison protocol.
//
// Run it from the repository root:
//
//	bash bench/run.sh -seed 42 -out run.json      # full run, every workload
//	bash bench/run.sh --workload btree-tx --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// warmColdRuns is how many cold campaigns a one-workload run of the warm
// workload makes during set-up; its set-up time is their median.
const warmColdRuns = 3

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runner holds the settings shared by every child a run starts.
type runner struct {
	seed   int64
	ops    int
	poolMB int
	dir    string
	log    io.Writer
}

// childSpec is the child's argument. The warm workload's children, its
// set-up's cold runs included, share one verdict-cache file.
func (r *runner) childSpec(wd workloadDef, trace bool) childSpec {
	ops := wd.Ops
	if r.ops > 0 {
		ops = r.ops
	}
	spec := childSpec{Trace: trace, Workload: wd.Name, Seed: r.seed, Ops: ops, PoolMB: r.poolMB, Dir: r.dir}
	if wd.Warm {
		spec.VerdictFile = r.verdictFile(wd)
	}
	return spec
}

// pinned reports whether the workload runs at the size its pins were
// taken at.
func (r *runner) pinned() bool { return r.ops == 0 }

func (r *runner) verdictFile(wd workloadDef) string {
	return filepath.Join(r.dir, wd.Name+".vc")
}

// coldRun is the warm workload's set-up: a cold campaign over the same
// inputs that writes the verdict-cache file. It replays on both workers,
// so the parallel loop calibrates it.
func (r *runner) coldRun(wd workloadDef) (*campaignOutput, error) {
	if err := os.Remove(r.verdictFile(wd)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var out campaignOutput
	var err error
	if _, out.HostCalS, err = spawnCalibrated(r.childSpec(wd, false), &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// coldSetups is the set-up time each cold run stands for: its child's
// set-up, campaign and save, scaled to the reference host.
func coldSetups(colds []*campaignOutput) []float64 {
	k := hostScale(colds)
	xs := make([]float64, len(colds))
	for i, o := range colds {
		xs[i] = o.SetupS + (o.CampaignS+o.SaveS)*k
	}
	return xs
}

// timed runs one timed campaign in a fresh child.
func (r *runner) timed(wd workloadDef) (*campaignOutput, error) {
	var out campaignOutput
	var err error
	if out.PeakRSSMB, out.HostCalS, err = spawnCalibrated(r.childSpec(wd, false), &out, wd.Warm); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.log, "bench: %s: campaign %.3f s, cpu %.3f s, peak rss %.0f MiB, calibration %.3f s, %d failure points\n",
		wd.Name, out.CampaignS, out.CPUS, out.PeakRSSMB, out.HostCalS, out.FailurePoints)
	return &out, nil
}

// traced runs one traced run in a fresh child.
func (r *runner) traced(wd workloadDef) (*traceOutput, error) {
	var out traceOutput
	_, hostCalS, err := spawnCalibrated(r.childSpec(wd, true), &out, wd.Warm)
	if err != nil {
		return nil, err
	}
	out.Metrics["host.calibration_s"] = hostCalS
	fmt.Fprintf(r.log, "bench: %s: traced, coverage %.3f, overhead %.2f\n",
		wd.Name, out.Metrics["trace.coverage"], out.Metrics["trace.overhead"])
	return &out, nil
}

// checker collects failed output checks.
type checker struct{ failures []string }

func (c *checker) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// checkCampaigns checks a workload's campaign outputs: every run of the
// same inputs produces the same failure points and byte-identical
// reports (warm re-runs included, against the cold run), and at the
// default size they match the workload's pins.
func (c *checker) checkCampaigns(wd workloadDef, pinned bool, outs []*campaignOutput) {
	ref := outs[0]
	for _, o := range outs[1:] {
		c.expect(o.FailurePoints == ref.FailurePoints, "%s: %d failure points in one run, %d in another", wd.Name, o.FailurePoints, ref.FailurePoints)
		c.expect(o.ReportSHA == ref.ReportSHA, "%s: reports of identical inputs differ", wd.Name)
	}
	if pinned {
		c.expect(ref.FailurePoints == wd.FailurePoints, "%s: %d failure points, pinned %d", wd.Name, ref.FailurePoints, wd.FailurePoints)
		c.expect(slices.Equal(ref.Findings, wd.Findings), "%s: findings %q, pinned %q", wd.Name, ref.Findings, wd.Findings)
	}
}

// checkTrace checks that the traced pipeline reached the same verdicts
// as the untraced Analyze run.
func (c *checker) checkTrace(wd workloadDef, t *traceOutput) {
	c.expect(t.Rejected == t.UntracedRejected, "%s: traced run rejected %d failure points, untraced %d", wd.Name, t.Rejected, t.UntracedRejected)
	c.expect(t.Classes == t.UntracedClasses, "%s: traced run found %d classes, untraced %d", wd.Name, t.Classes, t.UntracedClasses)
	c.expect(slices.Equal(t.Findings, t.UntracedFindings), "%s: traced findings %q, untraced %q", wd.Name, t.Findings, t.UntracedFindings)
}

// hostScale is the factor that scales the times of outs to the
// reference host: refCalibrationS over the median of the calibrations
// around them. One calibration is noisy; the median over a run is not.
func hostScale(outs []*campaignOutput) float64 {
	cals := make([]float64, len(outs))
	for i, o := range outs {
		cals[i] = o.HostCalS
	}
	return refCalibrationS / median(cals)
}

// endToEnd turns a workload's timed campaigns into per-metric samples,
// with every time scaled to the reference host. coldSetup is added to
// every set-up sample of the warm workload.
func endToEnd(outs []*campaignOutput, coldSetup []float64) map[string][]float64 {
	m := map[string][]float64{}
	k := hostScale(outs)
	for i, o := range outs {
		setup := o.SetupS
		if len(coldSetup) > 0 {
			setup += coldSetup[i%len(coldSetup)]
		}
		m["setup_s"] = append(m["setup_s"], setup)
		m["campaign_s"] = append(m["campaign_s"], o.CampaignS*k)
		m["fp_per_s"] = append(m["fp_per_s"], float64(o.Judged)/(o.CampaignS*k))
		m["cpu_s"] = append(m["cpu_s"], o.CPUS*k)
		m["peak_rss_mb"] = append(m["peak_rss_mb"], o.PeakRSSMB)
	}
	return m
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload, the mode automated comparisons use, and print one JSON result line (default: a full run of every workload)")
		seed     = fs.Int64("seed", skeletonSeed, "workload seed")
		seconds  = fs.Float64("seconds", 15, "with -workload: keep starting timed campaigns (or traced runs) until this many seconds have passed")
		trace    = fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of traced runs instead of the end-to-end metrics")
		reps     = fs.Int("reps", 5, "full run: timed campaigns per workload, interleaved round-robin across workloads")
		outPath  = fs.String("out", "", "full run: write the results as JSON to this file")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark description holding metric units and regression bounds")
		work     = fs.String("work", ".bench_build/work", "directory for temporary files")
		ops      = fs.Int("ops", 0, "operations per workload instead of each workload's own size (smoke tests; disables the pinned-output checks)")
		poolMB   = fs.Int("pool-mb", cliPoolMB, "simulated PM pool size in MiB (smoke tests)")
		compare  = fs.Bool("compare", false, "compare two full-run result files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareMain(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *reps < 1 || *poolMB < 1 || *ops < 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	r := &runner{seed: *seed, ops: *ops, poolMB: *poolMB, dir: dir, log: stderr}

	if *name != "" {
		wd, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		budget := time.Duration(*seconds * float64(time.Second))
		if *trace == 1 {
			err = r.workloadTrace(spec, wd, budget, stdout)
		} else {
			err = r.workloadCampaigns(spec, wd, budget, stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	res, err := r.fullRun(spec, *reps)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printRun(spec, res, stdout)
	if *outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: output checks failed:\n  "+strings.Join(res.Failures, "\n  "))
		return 1
	}
	return 0
}

func compareMain(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRun(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadRun(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	anyRegressed, err := compareRuns(spec, a, b, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if anyRegressed {
		return 1
	}
	return 0
}

// workloadResult is the one-line JSON result of a one-workload run.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick reads every spec metric out of values.
func pick(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, ms := range specs {
		v, ok := values[ms.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not measured", ms.Name)
		}
		out[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	return out, nil
}

func (r *runner) printResult(res workloadResult, failures []string, stdout io.Writer) error {
	for _, f := range failures {
		fmt.Fprintln(r.log, "bench: check failed:", f)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(data))
	return err
}

// workloadCampaigns runs timed campaigns of one workload until the budget
// has passed and prints the medians of the end-to-end metrics.
func (r *runner) workloadCampaigns(spec *benchSpec, wd workloadDef, budget time.Duration, stdout io.Writer) error {
	var c checker
	var colds []*campaignOutput
	var coldSetup []float64
	if wd.Warm {
		for i := 0; i < warmColdRuns; i++ {
			cold, err := r.coldRun(wd)
			if err != nil {
				return err
			}
			colds = append(colds, cold)
		}
		coldSetup = []float64{median(coldSetups(colds))}
	}
	var timed []*campaignOutput
	for start := time.Now(); len(timed) == 0 || time.Since(start) < budget; {
		o, err := r.timed(wd)
		if err != nil {
			return err
		}
		timed = append(timed, o)
	}
	c.checkCampaigns(wd, r.pinned(), append(colds, timed...))

	values := map[string]float64{}
	for name, xs := range endToEnd(timed, coldSetup) {
		values[name] = median(xs)
	}
	res := workloadResult{Correct: len(c.failures) == 0}
	for _, o := range timed {
		res.Attempted += o.FailurePoints
		res.Failed += o.FailurePoints - o.Judged
	}
	var err error
	if res.Metrics, err = pick(spec.EndToEnd, values); err != nil {
		return err
	}
	return r.printResult(res, c.failures, stdout)
}

// workloadTrace runs traced runs of one workload until the budget has
// passed and prints the medians of the per-layer metrics.
func (r *runner) workloadTrace(spec *benchSpec, wd workloadDef, budget time.Duration, stdout io.Writer) error {
	var c checker
	if wd.Warm {
		if _, err := r.coldRun(wd); err != nil {
			return err
		}
	}
	var traces []*traceOutput
	for start := time.Now(); len(traces) == 0 || time.Since(start) < budget; {
		t, err := r.traced(wd)
		if err != nil {
			return err
		}
		c.checkTrace(wd, t)
		traces = append(traces, t)
	}
	values := map[string]float64{}
	for _, ms := range spec.PerLayer {
		var xs []float64
		for _, t := range traces {
			if v, ok := t.Metrics[ms.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			values[ms.Name] = median(xs)
		}
	}
	res := workloadResult{Correct: len(c.failures) == 0}
	for _, t := range traces {
		res.Attempted += t.FailurePoints
		res.Failed += t.FailurePoints - t.Judged
	}
	var err error
	if res.Metrics, err = pick(spec.PerLayer, values); err != nil {
		return err
	}
	return r.printResult(res, c.failures, stdout)
}

// fullRun runs every workload: reps timed campaigns each, interleaved
// round-robin so that host drift spreads over all workloads, then one
// traced run each.
func (r *runner) fullRun(spec *benchSpec, reps int) (*runFile, error) {
	outs := make([][]*campaignOutput, len(workloads))
	colds := make([][]*campaignOutput, len(workloads))
	for rep := 0; rep < reps; rep++ {
		for i, wd := range workloads {
			if wd.Warm {
				cold, err := r.coldRun(wd)
				if err != nil {
					return nil, err
				}
				colds[i] = append(colds[i], cold)
			}
			o, err := r.timed(wd)
			if err != nil {
				return nil, err
			}
			outs[i] = append(outs[i], o)
		}
	}

	var c checker
	res := &runFile{
		Seed: r.seed, Reps: reps,
		Host: fmt.Sprintf("%s %s/%s, %d CPUs", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
	}
	for i, wd := range workloads {
		t, err := r.traced(wd)
		if err != nil {
			return nil, err
		}
		c.checkCampaigns(wd, r.pinned(), append(colds[i], outs[i]...))
		c.checkTrace(wd, t)

		wr := workloadRun{
			Name: wd.Name, FailurePoints: outs[i][0].FailurePoints, Findings: outs[i][0].Findings,
			EndToEnd: map[string]summary{}, PerLayer: map[string]float64{},
		}
		var cals []float64
		for _, o := range outs[i] {
			wr.Attempted += o.FailurePoints
			wr.Failed += o.FailurePoints - o.Judged
			cals = append(cals, o.HostCalS)
		}
		wr.HostCal = summarize("s", cals)
		samples := endToEnd(outs[i], coldSetups(colds[i]))
		for _, ms := range spec.EndToEnd {
			xs, ok := samples[ms.Name]
			if !ok {
				return nil, fmt.Errorf("metric %s is not measured", ms.Name)
			}
			wr.EndToEnd[ms.Name] = summarize(ms.Unit, xs)
		}
		for _, ms := range spec.PerLayer {
			v, ok := t.Metrics[ms.Name]
			if !ok {
				return nil, fmt.Errorf("metric %s is not measured", ms.Name)
			}
			wr.PerLayer[ms.Name] = v
		}
		res.Runs = append(res.Runs, wr)
	}
	res.Failures = c.failures
	res.Correct = len(c.failures) == 0
	return res, nil
}

// printRun prints the end-to-end table, then the per-layer table with
// one column per workload.
func printRun(spec *benchSpec, res *runFile, w io.Writer) {
	fmt.Fprintf(w, "# Mumak campaign benchmark: seed %d, %d reps, %s\n\n", res.Seed, res.Reps, res.Host)
	fmt.Fprintf(w, "%-15s %-12s %12s %12s %12s %3s  %s\n", "workload", "metric", "median", "q1", "q3", "n", "unit")
	for _, wr := range res.Runs {
		for _, ms := range spec.EndToEnd {
			s := wr.EndToEnd[ms.Name]
			fmt.Fprintf(w, "%-15s %-12s %12.5g %12.5g %12.5g %3d  %s\n", wr.Name, ms.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
		}
		fmt.Fprintf(w, "%-15s %-12s %12d of %d failure points without a verdict\n", wr.Name, "failed", wr.Failed, wr.Attempted)
		s := wr.HostCal
		fmt.Fprintf(w, "%-15s %-12s %12.5g %12.5g %12.5g %3d  s (times above are scaled to %g s)\n", wr.Name, "calibration", s.Median, s.Q1, s.Q3, s.N, refCalibrationS)
	}
	fmt.Fprintf(w, "\n# traced run, one per workload\n%-26s", "metric")
	for _, wr := range res.Runs {
		fmt.Fprintf(w, " %15s", wr.Name)
	}
	fmt.Fprintf(w, "  unit\n")
	for _, ms := range spec.PerLayer {
		fmt.Fprintf(w, "%-26s", ms.Name)
		for _, wr := range res.Runs {
			fmt.Fprintf(w, " %15.5g", wr.PerLayer[ms.Name])
		}
		fmt.Fprintf(w, "  %s\n", ms.Unit)
	}
	fmt.Fprintf(w, "\noutput checks: ")
	if res.Correct {
		fmt.Fprintln(w, "all passed")
	} else {
		fmt.Fprintf(w, "%d failed\n", len(res.Failures))
	}
}
