package metrics

import (
	"testing"
	"time"
)

// Usage must report the true CPU/wall ratio: serial oracle-bound runs
// sit below 1, parallel campaigns above it, and a run that used no CPU
// reads 0.
func TestCPULoadTrueRatio(t *testing.T) {
	cases := []struct {
		name string
		wall time.Duration
		cpu  time.Duration
		want float64
	}{
		{"idle-heavy serial run", time.Second, 250 * time.Millisecond, 0.25},
		{"fully busy", time.Second, time.Second, 1.0},
		{"parallel workers", time.Second, 4 * time.Second, 4.0},
		{"no busy time recorded", time.Second, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Run{wall: tc.wall, cpu: tc.cpu}
			if got := r.Usage().CPULoad; got != tc.want {
				t.Fatalf("CPULoad = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCPULoadMeasuresWork: the load is measured, not assumed, so a run
// that sleeps reads a lower load than one that spins for as long.
func TestCPULoadMeasuresWork(t *testing.T) {
	load := func(work func(until time.Time)) float64 {
		r := Start()
		work(time.Now().Add(100 * time.Millisecond))
		r.Stop()
		return r.Usage().CPULoad
	}
	sleep := load(func(until time.Time) { time.Sleep(time.Until(until)) })
	spin := load(func(until time.Time) {
		for time.Now().Before(until) {
		}
	})
	if sleep >= spin {
		t.Fatalf("a sleeping run reads CPU load %.2f, a spinning one %.2f", sleep, spin)
	}
	t.Logf("CPU load: sleeping %.2f, spinning %.2f", sleep, spin)
}

func TestStartStopCollects(t *testing.T) {
	r := Start()
	r.Stop()
	r.Stop() // idempotent
	u := r.Usage()
	if u.Wall <= 0 {
		t.Fatalf("wall = %v", u.Wall)
	}
	if u.PeakHeapBytes == 0 {
		t.Fatal("no heap peak sampled")
	}
}

func TestRAMOverhead(t *testing.T) {
	u := Usage{PeakHeapBytes: 300}
	if got := u.RAMOverhead(100); got != 3 {
		t.Fatalf("RAMOverhead = %v, want 3", got)
	}
	if got := u.RAMOverhead(0); got != 1 {
		t.Fatalf("RAMOverhead with zero vanilla peak = %v, want 1", got)
	}
}
