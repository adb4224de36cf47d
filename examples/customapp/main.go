// Custom application: Mumak is black-box, so it analyses any PM program
// that runs against the engine — no registration, annotations or
// semantics required. This example writes a small persistent FIFO queue
// from scratch, plants a classic ordering bug (the tail index is
// persisted before the element it publishes), and lets Mumak find it
// through the queue's own recovery procedure.
//
//	go run ./examples/customapp
package main

import (
	"fmt"
	"log"

	"mumak/internal/core"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// queue is a persistent ring buffer of uint64s.
//
// Layout: head u64 | tail u64 | check u64 | slots[cap]u64. Elements are
// pushed at tail and popped at head; check holds head^tail after every
// completed operation so recovery can tell a torn update from a clean
// state.
type queue struct {
	buggy bool
}

const (
	qHead  = 0x00
	qTail  = 0x08
	qCheck = 0x10
	qSlots = 0x40
	qCap   = 1024
)

// Name implements harness.Application.
func (q *queue) Name() string { return "example-fifo" }

// PoolSize implements harness.Application.
func (q *queue) PoolSize() int { return 1 << 20 }

// Setup implements harness.Application.
func (q *queue) Setup(e *pmem.Engine) error {
	e.Store64(qHead, 0)
	e.Store64(qTail, 0)
	e.Store64(qCheck, 0)
	persist(e, qHead, 24)
	return nil
}

// Run implements harness.Application: pushes and pops driven by the
// workload operations.
func (q *queue) Run(e *pmem.Engine, w workload.Workload) error {
	for _, op := range w.Ops {
		switch op.Kind {
		case workload.Put:
			q.push(e, op.Val|1) // non-zero payloads
		case workload.Delete:
			q.pop(e)
		}
	}
	return nil
}

func (q *queue) push(e *pmem.Engine, v uint64) {
	head, tail := e.Load64(qHead), e.Load64(qTail)
	if tail-head == qCap {
		return // full
	}
	slot := qSlots + 8*(tail%qCap)
	if q.buggy {
		// BUG: the tail (the publication point) is persisted before
		// the element it publishes.
		e.Store64(qTail, tail+1)
		e.Store64(qCheck, head^(tail+1))
		persist(e, qTail, 16)
		e.Store64(slot, v)
		persist(e, slot, 8)
		return
	}
	// Correct: element first, then the tail and checksum.
	e.Store64(slot, v)
	persist(e, slot, 8)
	e.Store64(qTail, tail+1)
	e.Store64(qCheck, head^(tail+1))
	persist(e, qTail, 16)
}

func (q *queue) pop(e *pmem.Engine) {
	head, tail := e.Load64(qHead), e.Load64(qTail)
	if head == tail {
		return // empty
	}
	e.Store64(qHead, head+1)
	e.Store64(qCheck, (head+1)^tail)
	persist(e, qHead, 16)
}

// Recover implements harness.Application: the queue's own recovery is
// Mumak's oracle. It checks the checksum and that every published slot
// holds a real element.
func (q *queue) Recover(e *pmem.Engine) error {
	head, tail := e.Load64(qHead), e.Load64(qTail)
	if e.Load64(qCheck) != head^tail {
		// A torn index pair: the in-between state of a correct push
		// never persists the indexes separately, so this only means
		// the final fence had not retired — acceptable, roll back to
		// nothing. (Black-box tools only see the verdict.)
		return nil
	}
	if tail < head || tail-head > qCap {
		return fmt.Errorf("fifo: indexes corrupt (head=%d tail=%d)", head, tail)
	}
	for i := head; i < tail; i++ {
		if e.Load64(qSlots+8*(i%qCap)) == 0 {
			return fmt.Errorf("fifo: published slot %d holds no element", i)
		}
	}
	return nil
}

// persist is the app's own flush+fence helper — custom PM code does not
// need any particular library.
func persist(e *pmem.Engine, off uint64, size int) {
	for line := off &^ 63; line <= (off+uint64(size)-1)&^63; line += 64 {
		e.CLWB(line)
	}
	e.SFence()
}

func main() {
	w := workload.Generate(workload.Config{N: 400, Seed: 7, PutFrac: 2, GetFrac: 0, DeleteFrac: 1})

	for _, buggy := range []bool{false, true} {
		res, err := core.Analyze(&queue{buggy: buggy}, w, core.Config{Classing: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== buggy=%v: %d unique bug(s) across %d failure points\n",
			buggy, len(res.Report.Bugs()), res.Tree.Len())
		if buggy {
			fmt.Print(res.Report.Format(false))
		}
	}
}
