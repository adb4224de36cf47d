// Package pmemcheck reimplements pmemcheck, the Valgrind tool shipped
// with PMDK (§3): a single-pass checker driven by the library's own
// annotations. The PM library is extensively annotated (our pmdk
// emits the same DO_PERSIST-style annotations) and the tool verifies
// that every store becomes durable under some annotated persist,
// reporting leftover stores as durability problems without
// distinguishing transient data (the ✓† of Table 1), plus redundant
// flushes. It has no notion of atomicity or ordering beyond what the
// annotations assert.
package pmemcheck

import (
	"errors"
	"slices"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/workload"
)

// ErrNoAnnotations marks a target whose library emits no annotations.
var ErrNoAnnotations = errors.New("pmemcheck: target library emits no annotations")

// Tool is the pmemcheck reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "pmemcheck" }

// Analyze implements tools.Tool.
func (t *Tool) Analyze(app harness.Application, w workload.Workload, cfg tools.Config) (*tools.Result, error) {
	res, _ := tools.Begin(t.Name(), app, cfg)
	hook := &checker{rep: res.Report, lines: map[uint64]*lineState{}}
	if err := tools.Run(app, w, res, hook); err != nil {
		return nil, err
	}
	res.Explored = int(res.EngineEvents)
	hook.finish()
	if hook.annotations == 0 {
		return res, ErrNoAnnotations
	}
	return res, nil
}

type lineState struct {
	dirty   uint64
	icount  uint64
	flushed bool
}

// checker tracks per-line durability against annotations and flushes.
type checker struct {
	rep         *report.Report
	lines       map[uint64]*lineState
	annotations int
}

func (c *checker) line(addr uint64) *lineState {
	base := addr &^ (pmem.CacheLineSize - 1)
	st := c.lines[base]
	if st == nil {
		st = &lineState{}
		c.lines[base] = st
	}
	return st
}

// OnEvent implements pmem.Hook.
func (c *checker) OnEvent(ev *pmem.Event) {
	switch ev.Op.Kind() {
	case pmem.KindStore:
		if ev.Op == pmem.OpNTStore {
			return // bypasses the cache: no line to flush
		}
		addr, remain := ev.Addr, uint64(ev.Size)
		for remain > 0 {
			base := addr &^ (pmem.CacheLineSize - 1)
			st := c.line(base)
			off := addr - base
			n := pmem.CacheLineSize - off
			if n > remain {
				n = remain
			}
			for b := uint64(0); b < n; b++ {
				st.dirty |= 1 << (off + b)
			}
			st.icount = ev.ICount
			st.flushed = false
			addr += n
			remain -= n
		}
	case pmem.KindFlush:
		st := c.line(ev.Addr)
		if st.flushed && st.dirty == 0 {
			c.rep.Add(report.Finding{
				Kind:   report.RedundantFlush,
				ICount: ev.ICount,
				Addr:   ev.Addr,
				Detail: "pmemcheck: flush of already-clean line",
			})
		}
		st.dirty = 0
		st.flushed = true
	}
}

// OnAnnotation implements pmem.AnnotationObserver: DO_PERSIST-style
// annotations clear durability tracking for the covered range.
func (c *checker) OnAnnotation(a *pmem.Annotation) {
	c.annotations++
	if a.Kind != pmem.AnnPersist {
		return
	}
	first := a.Addr &^ (pmem.CacheLineSize - 1)
	last := (a.Addr + uint64(a.Size) - 1) &^ (pmem.CacheLineSize - 1)
	for base := first; base <= last; base += pmem.CacheLineSize {
		if st := c.lines[base]; st != nil {
			st.dirty = 0
		}
	}
}

// finish reports leftover stores. pmemcheck does not distinguish
// transient data from forgotten persists (✓† in Table 1) and reports
// every occurrence, in address order, so the report never depends on
// map order.
func (c *checker) finish() {
	for _, base := range sortedBases(c.lines) {
		if st := c.lines[base]; st.dirty != 0 {
			c.rep.Add(report.Finding{
				Kind:   report.Durability,
				ICount: st.icount,
				Addr:   base,
				Detail: "pmemcheck: store not made persistent (possibly transient data)",
			})
		}
	}
}

var _ tools.Tool = (*Tool)(nil)
var _ pmem.AnnotationObserver = (*checker)(nil)

// sortedBases returns the line bases of lines in ascending order.
func sortedBases(lines map[uint64]*lineState) []uint64 {
	bases := make([]uint64, 0, len(lines))
	for base := range lines {
		bases = append(bases, base)
	}
	slices.Sort(bases)
	return bases
}
