package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

const specFile = "../BENCHMARK.json"

// smokeArgs runs every workload at a few hundred operations over small
// pools, which keeps a full run to seconds.
func smokeArgs(t *testing.T, extra ...string) []string {
	return append([]string{"-spec", specFile, "-work", t.TempDir(), "-ops", "300", "-pool-mb", "8"}, extra...)
}

func TestSmokeFullRun(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	if code := run(smokeArgs(t, "-reps", "1", "-out", out), &stdout, &stderr); code != 0 {
		t.Fatalf("full run exited %d:\n%s", code, stderr.String())
	}
	res, err := loadRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("output checks failed: %q", res.Failures)
	}
	if len(res.Runs) != len(workloads) {
		t.Fatalf("%d workloads in the results, want %d", len(res.Runs), len(workloads))
	}
	for _, wr := range res.Runs {
		for _, ms := range spec.EndToEnd {
			s, ok := wr.EndToEnd[ms.Name]
			if !ok || s.Unit != ms.Unit || s.N != 1 || !(s.Median > 0) {
				t.Errorf("%s %s: got %+v, want one positive sample in %s", wr.Name, ms.Name, s, ms.Unit)
			}
		}
		for _, ms := range spec.PerLayer {
			if v, ok := wr.PerLayer[ms.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s: got %v (present %v)", wr.Name, ms.Name, v, ok)
			}
		}
		if c := wr.PerLayer["trace.coverage"]; c < 0.95 {
			t.Errorf("%s: trace.coverage %.3f, want at least 0.95", wr.Name, c)
		}
		if wr.Attempted < 1 || wr.Failed != 0 {
			t.Errorf("%s: %d of %d failure points without a verdict", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	for _, ms := range append(spec.EndToEnd, spec.PerLayer...) {
		if !strings.Contains(stdout.String(), ms.Name) {
			t.Errorf("the printed tables lack %s", ms.Name)
		}
	}

	var cmp bytes.Buffer
	if code := run([]string{"-spec", specFile, "-compare", out, out}, &cmp, &stderr); code != 0 {
		t.Fatalf("-compare of a run with itself exited %d:\n%s", code, stderr.String())
	}
	rows := 0
	for _, line := range strings.Split(cmp.String(), "\n") {
		for _, v := range []string{improved, unchanged, regressed, unresolved} {
			if strings.HasSuffix(line, "  "+v) {
				rows++
				if v == improved || v == regressed {
					t.Errorf("a run compared with itself: %s", line)
				}
			}
		}
	}
	if want := len(workloads) * len(spec.EndToEnd); rows != want {
		t.Errorf("-compare printed %d verdict rows, want %d:\n%s", rows, want, cmp.String())
	}
}

// TestSmokeWorkloadMode runs the one-workload mode automated comparisons
// use, on the warm workload, which also checks the warm report against
// the cold one.
func TestSmokeWorkloadMode(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for trace, metrics := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := smokeArgs(t, "--workload", "btree-spt-warm", "--seed", "7", "--seconds", "0", "--trace", trace)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exited %d:\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		last := []byte(lines[len(lines)-1])
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(last, &keys); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		var got []string
		for k := range keys {
			got = append(got, k)
		}
		sort.Strings(got)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: result keys %q, want %q", trace, got, want)
		}
		var res workloadResult
		if err := json.Unmarshal(last, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v, %d attempted, %d failed", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(metrics) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(metrics))
		}
		for _, ms := range metrics {
			if v, ok := res.Metrics[ms.Name]; !ok || v.Unit != ms.Unit {
				t.Errorf("trace %s: %s is %+v, want unit %s", trace, ms.Name, v, ms.Unit)
			}
		}
	}
}

func TestInputsKeepTheSkeleton(t *testing.T) {
	base := inputs(2000, skeletonSeed)
	a, b := inputs(2000, 7), inputs(2000, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two different workloads")
	}
	if reflect.DeepEqual(a.Ops, base.Ops) {
		t.Fatal("seed 7 generated the seed-42 workload")
	}
	for i := range base.Ops {
		if a.Ops[i].Kind != base.Ops[i].Kind {
			t.Fatalf("op %d: kind %v, skeleton %v", i, a.Ops[i].Kind, base.Ops[i].Kind)
		}
		if (a.Ops[i].Key == 0) != (base.Ops[i].Key == 0) || (a.Ops[i].Val == 0) != (base.Ops[i].Val == 0) {
			t.Fatalf("op %d: zero not kept as zero", i)
		}
		for j := 0; j < i; j += 97 {
			if (a.Ops[i].Key < a.Ops[j].Key) != (base.Ops[i].Key < base.Ops[j].Key) ||
				(a.Ops[i].Key == a.Ops[j].Key) != (base.Ops[i].Key == base.Ops[j].Key) {
				t.Fatalf("ops %d and %d: key order differs from the skeleton", j, i)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "campaign_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "fp_per_s", Better: "higher", Bound: 0.1}
	steady := func(xs ...float64) summary { return summarize("s", xs) }
	for _, tc := range []struct {
		ms   metricSpec
		a, b summary
		want string
	}{
		{lower, steady(10, 10, 10), steady(10.5, 10.5, 10.5), unchanged},
		{lower, steady(10, 10, 10), steady(12, 12, 12), regressed},
		{lower, steady(10, 10, 10), steady(8, 8, 8), improved},
		{higher, steady(10, 10, 10), steady(8, 8, 8), regressed},
		{higher, steady(10, 10, 10), steady(12, 12, 12), improved},
		{lower, steady(5, 10, 15), steady(12, 12, 12), unresolved},
		{lower, steady(9, 10, 15), steady(4, 5, 6), improved},
	} {
		if _, got := verdict(tc.ms, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.ms.Name, tc.a.Samples, tc.b.Samples, got, tc.want)
		}
	}
}
