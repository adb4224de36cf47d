package metrics

import (
	"testing"
	"time"
)

// Usage must report the true busy/wall ratio: serial oracle-bound runs
// sit below 1, parallel campaigns above it. Only a run with no recorded
// busy time at all defaults to 1.
func TestCPULoadTrueRatio(t *testing.T) {
	cases := []struct {
		name string
		wall time.Duration
		busy time.Duration
		want float64
	}{
		{"idle-heavy serial run", time.Second, 250 * time.Millisecond, 0.25},
		{"fully busy", time.Second, time.Second, 1.0},
		{"parallel workers", time.Second, 4 * time.Second, 4.0},
		{"no busy time recorded", time.Second, 0, 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Run{wall: tc.wall}
			r.busyNanos.Store(int64(tc.busy))
			if got := r.Usage().CPULoad; got != tc.want {
				t.Fatalf("CPULoad = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestStartStopCollects(t *testing.T) {
	r := Start()
	r.AddBusy(5 * time.Millisecond)
	r.AddPM(4096)
	r.Stop()
	r.Stop() // idempotent
	u := r.Usage()
	if u.Wall <= 0 {
		t.Fatalf("wall = %v", u.Wall)
	}
	if u.PMExtraBytes != 4096 {
		t.Fatalf("PMExtraBytes = %d", u.PMExtraBytes)
	}
	if u.PeakHeapBytes == 0 {
		t.Fatal("no heap peak sampled")
	}
	if u.CPULoad <= 0 {
		t.Fatalf("CPULoad = %v", u.CPULoad)
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
