// Package metrics collects the resource measurements of Table 2: wall
// time, average CPU load (the process's user plus system CPU time over
// wall time) and peak volatile memory relative to a vanilla execution.
// The PM column is not measured here: a tool counts the persistent
// memory it keeps itself (tools.Result.PMExtraBytes).
//
// CPU time is the getrusage(RUSAGE_SELF) delta around the run, so it
// counts every goroutine of the process: the experiments run one tool at
// a time.
package metrics

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// heapMetric is the runtime/metrics name of the bytes held by heap
// objects, live or not yet swept: the quantity MemStats.HeapAlloc
// reports. Reading it does not stop the world.
const heapMetric = "/memory/classes/heap/objects:bytes"

// Run aggregates one analysis run's resource usage.
type Run struct {
	start     time.Time
	cpuStart  time.Duration
	wall      time.Duration
	cpu       time.Duration
	heapStart uint64
	heapPeak  atomic.Uint64
	stopPoll  chan struct{}
	done      chan struct{}
	stopOnce  sync.Once
}

// Start begins measuring; call Stop when the analysis finishes. It first
// collects the garbage earlier runs left, so that the heap samples count
// only what this run allocates, and it does so before it reads the
// clocks, so the collection counts in neither wall nor CPU time.
func Start() *Run {
	runtime.GC()
	sample := []rtmetrics.Sample{{Name: heapMetric}}
	heap := readHeap(sample)
	r := &Run{
		start:     time.Now(),
		cpuStart:  cpuTime(),
		heapStart: heap,
		stopPoll:  make(chan struct{}),
		done:      make(chan struct{}),
	}
	r.heapPeak.Store(heap)
	go r.poll(sample)
	return r
}

// readHeap reads the heap size into sample, a one-element slice naming
// heapMetric.
func readHeap(sample []rtmetrics.Sample) uint64 {
	rtmetrics.Read(sample)
	return sample[0].Value.Uint64()
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// poll samples heap usage until stopped.
func (r *Run) poll(sample []rtmetrics.Sample) {
	defer close(r.done)
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopPoll:
			return
		case <-ticker.C:
			r.observe(readHeap(sample))
		}
	}
}

// observe raises the peak to heap if heap is above it.
func (r *Run) observe(heap uint64) {
	for {
		cur := r.heapPeak.Load()
		if heap <= cur || r.heapPeak.CompareAndSwap(cur, heap) {
			return
		}
	}
}

// Stop finishes measurement with one last heap sample, so that a run
// shorter than the poll interval is sampled too; extra calls are no-ops.
func (r *Run) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopPoll)
		<-r.done
		r.wall = time.Since(r.start)
		r.cpu = cpuTime() - r.cpuStart
		r.observe(readHeap([]rtmetrics.Sample{{Name: heapMetric}}))
	})
}

// Usage is the Table 2 row for one run.
type Usage struct {
	// Wall is the total analysis time.
	Wall time.Duration
	// CPULoad is the process's CPU time divided by wall time: above 1
	// for parallel tools, below 1 for runs that wait (e.g. oracle-bound
	// serial campaigns), 0 for a run that used no CPU.
	CPULoad float64
	// PeakHeapBytes is the peak observed Go heap during the run.
	PeakHeapBytes uint64
	// HeapStartBytes is the heap size when the run began.
	HeapStartBytes uint64
}

// Usage returns the collected measurements; call after Stop.
func (r *Run) Usage() Usage {
	var load float64
	if r.wall > 0 {
		load = float64(r.cpu) / float64(r.wall)
	}
	return Usage{
		Wall:           r.wall,
		CPULoad:        load,
		PeakHeapBytes:  r.heapPeak.Load(),
		HeapStartBytes: r.heapStart,
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
