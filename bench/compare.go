package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the command reads: metric
// names, units, directions and regression bounds.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runFile is the JSON a full run writes and -compare reads.
type runFile struct {
	Seed     int64         `json:"seed"`
	Reps     int           `json:"reps"`
	Host     string        `json:"host"`
	Correct  bool          `json:"correct"`
	Failures []string      `json:"failures"`
	Runs     []workloadRun `json:"workloads"`
}

// workloadRun is one workload's share of a full run.
type workloadRun struct {
	Name          string             `json:"name"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	FailurePoints int                `json:"failure_points"`
	Findings      []string           `json:"findings"`
	EndToEnd      map[string]summary `json:"end_to_end"`
	PerLayer      map[string]float64 `json:"per_layer"`
	// HostCal summarises the host calibrations around the timed
	// campaigns; their median scaled the end-to-end times.
	HostCal summary `json:"host_calibration_s"`
}

func loadRun(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Row verdicts of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges B against A for one metric. worse is B's median change
// against A's, signed so that positive is worse. When either side's
// run-to-run spread is wider than the bound, no median change can be
// told from noise: the row is unresolved unless every run of B reads
// better than every run of A.
func verdict(ms metricSpec, a, b summary) (worse float64, v string) {
	worse = (b.Median - a.Median) / a.Median
	if ms.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread() > ms.Bound || b.spread() > ms.Bound:
		if allBetter(ms, a.Samples, b.Samples) {
			return worse, improved
		}
		return worse, unresolved
	case worse > ms.Bound:
		return worse, regressed
	case worse < -ms.Bound:
		return worse, improved
	}
	return worse, unchanged
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(ms metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (ms.Better == "higher") != (y > x) || y == x {
				return false
			}
		}
	}
	return true
}

// compareRuns prints one row per workload and end-to-end metric and
// reports whether any row regressed.
func compareRuns(spec *benchSpec, a, b *runFile, w io.Writer) (anyRegressed bool, err error) {
	fmt.Fprintf(w, "A: seed %d, %d reps, %s\nB: seed %d, %d reps, %s\n\n", a.Seed, a.Reps, a.Host, b.Seed, b.Reps, b.Host)
	fmt.Fprintf(w, "%-15s %-12s %-36s %-36s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
	cell := func(s summary) string {
		return fmt.Sprintf("%.4g [%.4g, %.4g] %s", s.Median, s.Q1, s.Q3, s.Unit)
	}
	bRuns := map[string]workloadRun{}
	for _, r := range b.Runs {
		bRuns[r.Name] = r
	}
	for _, ra := range a.Runs {
		rb, ok := bRuns[ra.Name]
		if !ok {
			return false, fmt.Errorf("workload %s is missing from B", ra.Name)
		}
		for _, ms := range spec.EndToEnd {
			sa, okA := ra.EndToEnd[ms.Name]
			sb, okB := rb.EndToEnd[ms.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s %s is missing from A or B", ra.Name, ms.Name)
			}
			worse, v := verdict(ms, sa, sb)
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-15s %-12s %-36s %-36s %+7.1f%% %5.0f%%  %s\n",
				ra.Name, ms.Name, cell(sa), cell(sb), 100*worse, 100*ms.Bound, v)
		}
	}
	return anyRegressed, nil
}
