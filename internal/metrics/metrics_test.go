package metrics

import (
	"runtime"
	rtmetrics "runtime/metrics"
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

// sink keeps an allocation reachable until a test drops it.
var sink []byte

// TestGarbageBeforeStartIsNotCounted: garbage an earlier run left is
// not this run's memory, so a run that allocates nothing reads about
// the heap it started with, not the dropped buffer on top of it.
func TestGarbageBeforeStartIsNotCounted(t *testing.T) {
	runtime.GC()
	before := readHeap([]rtmetrics.Sample{{Name: heapMetric}})
	sink = make([]byte, 32<<20)
	sink = nil
	r := Start()
	r.Stop()
	if u := r.Usage(); u.PeakHeapBytes >= before+16<<20 {
		t.Fatalf("peak heap %d MiB after dropping 32 MiB over a %d MiB heap; the garbage was counted",
			u.PeakHeapBytes>>20, before>>20)
	}
}

// TestShortRunIsSampled: a run shorter than the poll interval still
// gets a sample of its own, so 32 MiB it keeps live until it ends is
// counted.
func TestShortRunIsSampled(t *testing.T) {
	r := Start()
	buf := make([]byte, 32<<20)
	r.Stop()
	runtime.KeepAlive(buf)
	if u := r.Usage(); u.PeakHeapBytes < u.HeapStartBytes+32<<20 {
		t.Fatalf("peak heap %d MiB over a start of %d MiB; the 32 MiB the run kept were not counted",
			u.PeakHeapBytes>>20, u.HeapStartBytes>>20)
	}
}
