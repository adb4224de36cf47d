// Package metrics collects the resource measurements of Table 2: wall
// time, average CPU load (busy goroutine-seconds over wall time), peak
// volatile memory relative to a vanilla execution, and PM overhead (the
// analysis' extra persistent memory relative to the target's own usage).
package metrics

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Run aggregates one analysis run's resource usage.
type Run struct {
	start     time.Time
	wall      time.Duration
	busyNanos atomic.Int64
	heapStart uint64
	heapPeak  atomic.Uint64
	pmExtra   atomic.Uint64
	stopPoll  chan struct{}
	done      chan struct{}
	stopOnce  sync.Once
}

// Start begins measuring; call Stop when the analysis finishes.
func Start() *Run {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := &Run{
		start:     time.Now(),
		heapStart: ms.HeapAlloc,
		stopPoll:  make(chan struct{}),
		done:      make(chan struct{}),
	}
	r.heapPeak.Store(ms.HeapAlloc)
	go r.poll()
	return r
}

// poll samples heap usage until stopped.
func (r *Run) poll() {
	defer close(r.done)
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopPoll:
			return
		case <-ticker.C:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			for {
				cur := r.heapPeak.Load()
				if ms.HeapAlloc <= cur || r.heapPeak.CompareAndSwap(cur, ms.HeapAlloc) {
					break
				}
			}
		}
	}
}

// AddBusy accounts busy worker time; workers call it with the duration
// they spent computing, so parallel tools accumulate CPU load above 1.
func (r *Run) AddBusy(d time.Duration) { r.busyNanos.Add(int64(d)) }

// AddPM accounts persistent memory the tool itself allocated (beyond the
// target's pools), e.g. XFDetector's on-PM analysis metadata.
func (r *Run) AddPM(bytes uint64) { r.pmExtra.Add(bytes) }

// Stop finishes measurement; extra calls are no-ops.
func (r *Run) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopPoll)
		<-r.done
		r.wall = time.Since(r.start)
	})
}

// Usage is the Table 2 row for one run.
type Usage struct {
	// Wall is the total analysis time.
	Wall time.Duration
	// CPULoad is busy-time divided by wall time: above 1 for parallel
	// tools, below 1 for runs that wait (e.g. oracle-bound serial
	// campaigns). It defaults to 1 only when no busy time was recorded
	// at all.
	CPULoad float64
	// PeakHeapBytes is the peak observed Go heap during the run.
	PeakHeapBytes uint64
	// HeapStartBytes is the heap size when the run began.
	HeapStartBytes uint64
	// PMExtraBytes is the tool's own persistent-memory footprint.
	PMExtraBytes uint64
}

// Usage returns the collected measurements; call after Stop.
func (r *Run) Usage() Usage {
	busy := time.Duration(r.busyNanos.Load())
	load := 1.0
	if r.wall > 0 && busy > 0 {
		// Report the true ratio: clamping sub-1 loads up would hide
		// genuinely idle (e.g. oracle-bound) runs from Table 2.
		load = float64(busy) / float64(r.wall)
	}
	return Usage{
		Wall:           r.wall,
		CPULoad:        load,
		PeakHeapBytes:  r.heapPeak.Load(),
		HeapStartBytes: r.heapStart,
		PMExtraBytes:   r.pmExtra.Load(),
	}
}

// RAMOverhead computes the Table 2 "peak RAM relative to vanilla" ratio
// given the vanilla execution's peak.
func (u Usage) RAMOverhead(vanillaPeak uint64) float64 {
	if vanillaPeak == 0 {
		return 1
	}
	return float64(u.PeakHeapBytes) / float64(vanillaPeak)
}
