// The campaign driver: one worker pool for every worker count, in both
// modes.
//
// Every injection is independent: it hands a graceful-crash image to a
// private recovery engine. In counter mode that image is the one phase
// 1 froze for the leaf, and the pool starts with phase 1: the builder
// hands each new leaf to the class plan as soon as it has stamped the
// leaf and frozen its image, and a leaf the plan gives a worker is
// judged while phase 1 runs on beside the workers; whatever they have
// not judged when phase 1 ends, they judge after it. A leaf's verdict
// depends only on its image and the sandbox settings, so when it is
// judged cannot change it. In stack mode phase 1 keeps no images: after
// it, one pass goroutine re-executes the workload with a private
// multi-target injector over the frozen tree and freezes each leaf's
// image at its first call-stack match (pass.go), handing it over as it
// goes. Nothing but the read-only workload, the stateless application
// value, the leaves and their frozen images, and the (concurrency-safe)
// stack table is shared with the workers; a single worker is simply the
// smallest pool. Counter-mode leaves the plan defers to the merge
// goroutine are not injected by workers at all: the merge loop resolves
// them from the verdict memo, which only it touches.
//
// Determinism is preserved by separating execution from merging:
// workers take the pool's jobs in the order they were added, which is
// FirstICount order, wait for a job's image when the pass has not
// frozen it yet, and judge in any interleaving, but a single merge loop,
// which runs after phase 1, folds the records into the Result and Report
// strictly in leaf order, so the final report is byte-identical for any
// worker count. Budget expiry, interruption and stack mode's no-progress
// abort are likewise decided only at merge time, in leaf order;
// speculative injections beyond the stop point are discarded, so the
// campaign's progress is the same prefix of the work list, and the
// aggregate counters the same, whatever the worker count.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"mumak/internal/fpt"
)

// wakeBatch is how many jobs must wait before add wakes a parked
// worker. A wakeup costs the Go scheduler about as much CPU as a cheap
// recovery check: waking a worker for every leaf phase 1 handed over
// cost btree-spt's campaign about 2% more CPU than judging them all
// after phase 1, and batches of 16 cost none, while keeping btree-tx's
// overlap. close wakes every worker when phase 1 ends.
const wakeBatch = 16

// pool is a campaign's worker pool. Workers judge its jobs in the order
// they were added. A worker starts with each job until limit workers
// run, so no more workers run than jobs were handed to them; each one
// then takes the next unclaimed job until the pool is closed and
// drained, or stopped, and parks while none waits.
type pool struct {
	in   *injector
	size int

	mu   sync.Mutex
	more sync.Cond // a job was added, or the pool closed or stopped
	jobs []*job
	// next is the first job no worker has claimed: claims are
	// contiguous, and every claimed job's done channel is closed, so
	// the merge loop can wait on jobs in order without risking a stall.
	next    int
	closed  bool // no job will be added
	started int
	begin   time.Time // the first worker's start
	wg      sync.WaitGroup

	stopped atomic.Bool // workers and the pass take no more work
	// beside is set while phase 1 runs beside the workers.
	beside atomic.Bool
	busy   atomic.Int64
}

// job is one leaf a worker judges.
type job struct {
	slot
	// ready is closed once the stack-mode pass has filled the slot; nil
	// when the slot was filled when the job was added. done is closed
	// once the slot's outcome is final.
	ready, done chan struct{}
	// early reports that the job's recovery check finished while phase
	// 1 was still running.
	early bool
}

func newPool(in *injector, size int) *pool {
	p := &pool{in: in, size: size}
	p.more.L = &p.mu
	p.beside.Store(true)
	return p
}

// add hands the pool one more job, filled now or, given a ready
// channel, by the pass once it closes that channel.
func (p *pool) add(s slot, ready chan struct{}) *job {
	jb := &job{slot: s, ready: ready, done: make(chan struct{})}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobs = append(p.jobs, jb)
	switch {
	case p.started < p.limit():
		p.spawn()
	case len(p.jobs)-p.next >= wakeBatch:
		p.more.Signal()
	}
	return jb
}

// limit is how many workers may run: size, but one fewer while phase 1
// runs beside them (at least one), so that phase 1, the campaign's
// critical path, keeps a CPU of its own: with as many checks as CPUs
// beside it, the CLI's default of one worker per CPU slowed phase 1.
func (p *pool) limit() int {
	if p.beside.Load() && p.size > 1 {
		return p.size - 1
	}
	return p.size
}

// spawn starts one more worker. The caller holds mu.
func (p *pool) spawn() {
	if p.started == 0 {
		p.begin = time.Now()
	}
	p.started++
	p.wg.Add(1)
	go p.work()
}

// close declares that no job will be added, wakes every worker, starts
// more, up to size, while unclaimed jobs outnumber the workers, and
// returns the jobs.
func (p *pool) close() []*job {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for p.started < p.size && p.started < len(p.jobs)-p.next {
		p.spawn()
	}
	p.more.Broadcast()
	return p.jobs
}

// stop makes the workers and the pass take no more work and returns
// once every goroutine of the pool has ended. It may be called more
// than once.
func (p *pool) stop() {
	p.stopped.Store(true)
	p.mu.Lock()
	p.more.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// claim returns the next unclaimed job, waiting for one while the pool
// is open, or nil once the pool is drained or stopped.
func (p *pool) claim() *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.next == len(p.jobs) && !p.closed && !p.stopped.Load() {
		p.more.Wait()
	}
	if p.next == len(p.jobs) || p.stopped.Load() {
		return nil
	}
	p.next++
	return p.jobs[p.next-1]
}

// work is one worker: it judges the jobs it claims until claim returns
// nil, or until it sees the deadline or an interruption, when it marks
// its job not executed and returns; the merge loop turns the first such
// job into Interrupted or TimedOut.
func (p *pool) work() {
	defer p.wg.Done()
	sb := p.in.sb
	for jb := p.claim(); jb != nil; jb = p.claim() {
		if jb.ready != nil {
			<-jb.ready
		}
		if sb.interrupted() || sb.expired() {
			jb.slot = slot{}
			close(jb.done)
			return
		}
		t0 := time.Now()
		p.in.finish(&jb.slot)
		p.busy.Add(int64(time.Since(t0)))
		jb.early = p.beside.Load()
		close(jb.done)
	}
}

// injectParallel runs the campaign from the end of phase 1: in stack
// mode it hands the pool every pending leaf and starts the pass that
// freezes their images; in counter mode the pool already holds its
// jobs, some of them judged. Then it merges the
// outcomes deterministically and returns whether the deadline expired
// before every leaf was consumed. late reports that the deadline had
// expired before phase 1 ended: a job counts as claimed no earlier than
// that, so it is not executed. The deadline is honoured mid-pass too:
// the pass's engine carries it as a wall-clock watchdog. A
// graceful-interruption request is honoured like the deadline — workers
// stop taking leaves, the pass halts at its next failure-point
// candidate, in-flight recovery checks drain, and the merge loop stops
// at the first unexecuted slot in leaf order — but is attributed to
// Result.Interrupted instead of TimedOut. The caller stops the pool.
func injectParallel(m *mergeState, pending []*fpt.Leaf, late bool) (timedOut bool) {
	p, res := m.pool, m.res
	in := p.in
	if in.cfg.StackMode && len(pending) > 0 {
		jobs := make([]*job, len(pending))
		for k := range pending {
			jobs[k] = p.add(slot{}, make(chan struct{}))
		}
		// The pass fills every job it owns before it returns, so no
		// worker waits on one forever.
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			t0 := time.Now()
			halt := func() bool { return p.stopped.Load() || in.sb.interrupted() }
			in.passes(pending, halt, func(k int, s slot) {
				jobs[k].slot = s
				close(jobs[k].ready)
			})
			p.busy.Add(int64(time.Since(t0)))
		}()
	}
	jobs := p.close()

	for _, leaf := range pending {
		var out replayOutcome
		if m.plan.deferred(leaf) {
			// By now every earlier leaf — the class's first leaf included
			// — has been merged, so the memo holds the class verdict.
			out = m.resolve(leaf)
		} else if !late {
			jb := jobs[0]
			jobs = jobs[1:]
			<-jb.done
			out = jb.out
			if jb.early && out.executed && !out.deadlineHit {
				res.EarlyRecoveries++
			}
		}
		if !out.executed || out.deadlineHit {
			// The worker stopped before judging (deadline or
			// interruption), the pass halted before the leaf, or a
			// mid-flight watchdog cut the pass or the check short;
			// decided here in leaf order so speculative later injections
			// are discarded. A mid-flight watchdog cut is always budget
			// expiry; an unexecuted slot is attributed to the
			// interruption when one is pending, to the deadline
			// otherwise.
			if !out.deadlineHit && in.sb.interrupted() {
				res.Interrupted = true
			} else {
				timedOut = true
			}
			break
		}
		if m.consume(leaf, out.Record) {
			break
		}
	}
	return timedOut
}
