package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"mumak/internal/apps"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/report"
	"mumak/internal/workload"
)

// childEnv marks a process started as a benchmark child: every timed
// campaign and every traced run gets a fresh process, so one run's heap
// and page cache never leak into the next one's numbers.
const childEnv = "MUMAK_BENCH_CHILD"

// childTimeout bounds one child process, so that a hung campaign ends
// the benchmark with an error rather than running forever.
const childTimeout = 170 * time.Second

// setupReps is how many times a campaign child sets up.
const setupReps = 21

// childSpec is the single argument of a child process.
type childSpec struct {
	Trace    bool   `json:"trace"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	PoolMB   int    `json:"pool_mb"`
	// Dir is a directory the child may write temporary files to.
	Dir string `json:"dir"`
	// VerdictFile plays -verdict-cache-file: loaded before the campaign
	// (a missing file is a cold start) and saved after it.
	VerdictFile string `json:"verdict_file,omitempty"`
}

// campaignOutput is what one campaign child measured and produced.
type campaignOutput struct {
	// SetupS is already scaled to the reference host (see setupLoop).
	SetupS    float64 `json:"setup_s"`
	CampaignS float64 `json:"campaign_s"`
	CPUS      float64 `json:"cpu_s"`
	// SaveS is the SaveVerdictCache time, zero without a verdict file.
	SaveS float64 `json:"save_s"`
	// PeakRSSMB is filled in by the parent from the child's rusage, and
	// HostCalS by the parent's calibrations around the child.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	HostCalS  float64 `json:"host_cal_s"`

	FailurePoints int      `json:"failure_points"`
	Judged        int      `json:"judged"`
	Findings      []string `json:"findings"`
	ReportSHA     string   `json:"report_sha"`
}

// childMain runs the child side of the protocol: decode the spec, run
// it, print the JSON result on stdout.
func childMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "bench child: want one JSON spec argument")
		return 2
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(args[0]), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: decoding spec:", err)
		return 2
	}
	var out any
	var err error
	if spec.Trace {
		out, err = runTrace(spec)
	} else {
		out, err = runCampaign(spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %s: %v\n", spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// runCampaign does what one `mumak` invocation does with the workload's
// flags, timing set-up and the Analyze call separately.
func runCampaign(spec childSpec) (*campaignOutput, error) {
	wd, err := lookupWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	// Set-up takes milliseconds, so one measurement is mostly noise: it
	// runs setupReps times, each scaled by the setupLoop right after it,
	// and counts the median. Each starts from a collected heap: otherwise
	// about half the reps pay for a collection of the garbage of earlier
	// ones, and the median flips between the two groups.
	var w workload.Workload
	var app harness.Application
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		w = inputs(spec.Ops, spec.Seed)
		if app, err = apps.New(wd.Target, appConfig(wd, spec.PoolMB)); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds() * refSetupLoopS / setupLoop().Seconds()
	}
	out := &campaignOutput{SetupS: median(setups)}

	meta := campaignMeta(wd, spec.Ops, spec.Seed)
	var warm []campaign.CacheEntry
	if spec.VerdictFile != "" {
		if warm, err = campaign.LoadVerdictCache(spec.VerdictFile, meta); err != nil {
			return nil, err
		}
	}
	cfg := analyzeConfig(wd, cliWorkers, warm, spec.VerdictFile != "")
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := core.Analyze(app, w, cfg)
	out.CampaignS = time.Since(t1).Seconds()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	out.CPUS = cpu1 - cpu0
	if spec.VerdictFile != "" {
		t2 := time.Now()
		if err := campaign.SaveVerdictCache(spec.VerdictFile, meta, res.VerdictCache); err != nil {
			return nil, err
		}
		out.SaveS = time.Since(t2).Seconds()
	}

	out.FailurePoints = res.Tree.Len()
	out.Judged = res.Injections
	out.Findings = signature(res.Report)
	if out.ReportSHA, err = reportSHA(res.Report); err != nil {
		return nil, err
	}
	if res.TimedOut || res.Interrupted {
		return nil, fmt.Errorf("campaign did not complete (timed out %v, interrupted %v)", res.TimedOut, res.Interrupted)
	}
	return out, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// rejectedFindings counts the failure points whose crash image recovery
// rejected: one raw fault-injection finding each.
func rejectedFindings(rep *report.Report) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Kind == report.CrashConsistency || f.Kind == report.RecoveryHang {
			n++
		}
	}
	return n
}

// signature is the report's unique bugs without their code paths: kind
// and instruction counter, which are stable across processes.
func signature(rep *report.Report) []string {
	out := []string{}
	for _, f := range rep.Bugs() {
		out = append(out, fmt.Sprintf("%s@%d", f.Kind, f.ICount))
	}
	return out
}

// reportSHA hashes everything the CLI prints for a report: the text
// rendering and the JSON.
func reportSHA(rep *report.Report) (string, error) {
	var buf bytes.Buffer
	buf.WriteString(rep.Format(false))
	if err := rep.WriteJSON(&buf, false); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// spawn runs one child process and decodes its result into out. The
// child gets GOMAXPROCS=2 whatever the host has. It returns the child's
// peak resident set in MiB.
func spawn(spec childSpec, out any) (peakRSSMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, string(arg))
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", cliWorkers))
	cmd.Stderr = os.Stderr
	// A child outlives no benchmark process that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("child %s (trace %v): %w", spec.Workload, spec.Trace, err)
	}
	if err := json.Unmarshal(stdout, out); err != nil {
		return 0, fmt.Errorf("child %s: decoding result: %w", spec.Workload, err)
	}
	// Linux reports ru_maxrss in KiB.
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakRSSMB = float64(ru.Maxrss) / 1024
	}
	return peakRSSMB, nil
}

// spawnCalibrated runs one child between two host calibrations of the
// given shape and also returns their mean in seconds.
func spawnCalibrated(spec childSpec, out any, serial bool) (peakRSSMB, hostCalS float64, err error) {
	before := calibrate(serial)
	if peakRSSMB, err = spawn(spec, out); err != nil {
		return 0, 0, err
	}
	return peakRSSMB, (before + calibrate(serial)).Seconds() / 2, nil
}
