// Package pmdebugger reimplements PMDebugger (Di et al., ASPLOS'21):
// online, annotation-driven trace analysis. Short-lived store records
// live in an append-friendly array and are promoted to a long-term
// search structure at fences; pmemcheck-style annotations from the PM
// library segment the bookkeeping per transaction.
//
// The cost profile follows the original (§6.1): the per-transaction
// metadata is scanned on every store inside the transaction, so the
// original examples — which wrap all puts of a run in one transaction —
// degenerate to quadratic bookkeeping, while the SPT variants analyse in
// minutes. Targets whose library emits no annotations (Montage) are
// rejected, the PMDK dependence of Table 3.
package pmdebugger

import (
	"errors"
	"slices"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/workload"
)

// ErrNoAnnotations marks a target whose library emits no pmemcheck
// annotations; PMDebugger cannot analyse it.
var ErrNoAnnotations = errors.New("pmdebugger: target library emits no pmemcheck annotations")

// Tool is the PMDebugger reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "PMDebugger" }

// Analyze implements tools.Tool.
func (t *Tool) Analyze(app harness.Application, w workload.Workload, cfg tools.Config) (*tools.Result, error) {
	res, expired := tools.Begin(t.Name(), app, cfg)
	hook := &tracker{
		rep:     res.Report,
		expired: expired,
		lines:   map[uint64]*lineInfo{},
	}
	if err := tools.Run(app, w, res, hook); err != nil {
		return nil, err
	}
	res.TimedOut = hook.timedOut
	res.Explored = hook.processed
	hook.finish()
	if hook.annotations == 0 {
		return res, ErrNoAnnotations
	}
	return res, nil
}

// entry is one tracked unpersisted store.
type entry struct {
	addr   uint64
	size   int
	icount uint64
}

type lineInfo struct {
	// shortTerm holds stores since the last fence (the array).
	shortTerm []entry
	// longTerm holds stores that survived at least one fence (the
	// AVL-equivalent search structure).
	longTerm []entry
	flushed  bool // flushed since the last store
}

type txRange struct {
	addr uint64
	size int
}

// tracker is the online analysis hook.
type tracker struct {
	rep         *report.Report
	expired     func() bool // the run's budget check (tools.Begin)
	lines       map[uint64]*lineInfo
	flushesSF   int // flush instructions since the last fence
	ntSF        int
	inTx        bool
	txRanges    []txRange // per-transaction metadata segment
	internal    []txRange // library-internal regions (undo log)
	dirtyLines  []*lineInfo
	liveLines   []*lineInfo // lines holding long-lived unpersisted entries
	ntPending   []entry
	annotations int
	processed   int
	timedOut    bool
	checkTick   int
}

func (tk *tracker) line(addr uint64) *lineInfo {
	base := addr &^ (pmem.CacheLineSize - 1)
	li := tk.lines[base]
	if li == nil {
		li = &lineInfo{}
		tk.lines[base] = li
	}
	return li
}

// OnEvent implements pmem.Hook.
func (tk *tracker) OnEvent(ev *pmem.Event) {
	if tk.timedOut {
		return
	}
	tk.checkTick++
	if tk.checkTick%1024 == 0 && tk.expired() {
		tk.timedOut = true
		return
	}
	tk.processed++
	switch ev.Op.Kind() {
	case pmem.KindStore:
		if ev.Op == pmem.OpNTStore {
			// Non-temporal stores become durable at the next fence.
			tk.ntPending = append(tk.ntPending, entry{addr: ev.Addr, size: ev.Size, icount: ev.ICount})
			break
		}
		// Clip the store to per-line sub-entries so a flush of one
		// covered line retires exactly the bytes it persisted.
		addr, remain := ev.Addr, uint64(ev.Size)
		for remain > 0 {
			base := addr &^ (pmem.CacheLineSize - 1)
			n := base + pmem.CacheLineSize - addr
			if n > remain {
				n = remain
			}
			li := tk.line(base)
			if len(li.shortTerm) == 0 {
				tk.dirtyLines = append(tk.dirtyLines, li)
			}
			li.shortTerm = append(li.shortTerm, entry{addr: addr, size: int(n), icount: ev.ICount})
			li.flushed = false
			addr += n
			remain -= n
		}
		// Non-temporal stores (pmem_memset-style initialisation APIs)
		// are library calls, not application writes needing undo.
		if tk.inTx && ev.Op != pmem.OpNTStore && !tk.isInternal(ev.Addr, ev.Size) {
			// The per-transaction metadata scan: every store inside a
			// transaction is checked against the undo-logged ranges.
			// This is the bookkeeping that shrinks with shorter
			// transactions (§6.1).
			// The scan validates coverage AND that no two registered
			// ranges overlap the store ambiguously, so it always walks
			// the whole per-transaction segment (pmemcheck's overlap
			// checking); shorter transactions mean shorter segments.
			covered := false
			for _, r := range tk.txRanges {
				if ev.Addr >= r.addr && ev.Addr+uint64(ev.Size) <= r.addr+uint64(r.size) {
					covered = true
				}
			}
			if !covered {
				tk.rep.Add(report.Finding{
					Kind:   report.CrashConsistency,
					ICount: ev.ICount,
					Addr:   ev.Addr,
					Detail: "store inside a transaction to a range not registered with the undo log",
				})
			}
		}
	case pmem.KindFlush:
		li := tk.line(ev.Addr)
		if li.flushed && len(li.shortTerm) == 0 && len(li.longTerm) == 0 {
			tk.rep.Add(report.Finding{
				Kind:   report.RedundantFlush,
				ICount: ev.ICount,
				Addr:   ev.Addr,
				Detail: "line already written back",
			})
		}
		li.shortTerm = li.shortTerm[:0]
		li.longTerm = li.longTerm[:0]
		li.flushed = true
		if ev.Op != pmem.OpCLFlush {
			tk.flushesSF++
		}
	case pmem.KindFence:
		if ev.Op == pmem.OpRMW {
			li := tk.line(ev.Addr)
			li.shortTerm = append(li.shortTerm, entry{addr: ev.Addr, size: ev.Size, icount: ev.ICount})
		} else {
			if tk.flushesSF == 0 && tk.ntSF == 0 {
				tk.rep.Add(report.Finding{
					Kind:   report.RedundantFence,
					ICount: ev.ICount,
					Detail: "no flush or non-temporal store since the previous fence",
				})
			}
		}
		tk.flushesSF = 0
		tk.ntSF = 0
		tk.ntPending = tk.ntPending[:0] // fenced: durable
		// Promote surviving short-term entries to the long-term
		// structure (the array-to-AVL migration).
		for _, li := range tk.dirtyLines {
			if len(li.shortTerm) > 0 {
				if len(li.longTerm) == 0 {
					tk.liveLines = append(tk.liveLines, li)
				}
				li.longTerm = append(li.longTerm, li.shortTerm...)
				li.shortTerm = li.shortTerm[:0]
			}
		}
		tk.dirtyLines = tk.dirtyLines[:0]
		// Expire persisted long-lived entries: the long-term structure
		// is swept at every fence. This is the bookkeeping that the
		// paper identifies as PMDebugger's cost on the original
		// (single-transaction) variants: data durability there is NOT
		// guaranteed by the nearest fence, so entries pile up and every
		// sweep touches all of them, while the SPT variants keep this
		// set tiny (§6.1).
		kept := tk.liveLines[:0]
		for _, li := range tk.liveLines {
			if len(li.longTerm) > 0 {
				kept = append(kept, li)
			}
		}
		tk.liveLines = kept
	}
	if ev.Op == pmem.OpNTStore {
		tk.ntSF++
	}
}

// OnAnnotation implements pmem.AnnotationObserver.
func (tk *tracker) OnAnnotation(a *pmem.Annotation) {
	tk.annotations++
	switch a.Kind {
	case pmem.AnnTxBegin:
		tk.inTx = true
		tk.txRanges = tk.txRanges[:0]
	case pmem.AnnTxAdd:
		tk.txRanges = append(tk.txRanges, txRange{addr: a.Addr, size: a.Size})
	case pmem.AnnTxEnd:
		tk.inTx = false
		tk.txRanges = tk.txRanges[:0]
	case pmem.AnnNoDrain:
		tk.internal = append(tk.internal, txRange{addr: a.Addr, size: a.Size})
	}
}

// isInternal reports whether the store targets a library-internal region.
func (tk *tracker) isInternal(addr uint64, size int) bool {
	for _, r := range tk.internal {
		if addr >= r.addr && addr+uint64(size) <= r.addr+uint64(r.size) {
			return true
		}
	}
	return false
}

// finish reports every store that never became durable (all occurrences,
// without duplicate filtering — Table 3). It walks the lines in address
// order, so the report never depends on map order.
func (tk *tracker) finish() {
	for _, e := range tk.ntPending {
		tk.rep.Add(report.Finding{
			Kind:   report.Durability,
			ICount: e.icount,
			Addr:   e.addr,
			Detail: "non-temporal store never fenced",
		})
	}
	for _, base := range sortedBases(tk.lines) {
		li := tk.lines[base]
		for _, e := range append(append([]entry{}, li.longTerm...), li.shortTerm...) {
			tk.rep.Add(report.Finding{
				Kind:   report.Durability,
				ICount: e.icount,
				Addr:   e.addr,
				Detail: "store never persisted",
			})
		}
	}
}

var _ tools.Tool = (*Tool)(nil)
var _ pmem.AnnotationObserver = (*tracker)(nil)

// sortedBases returns the line bases of lines in ascending order.
func sortedBases(lines map[uint64]*lineInfo) []uint64 {
	bases := make([]uint64, 0, len(lines))
	for base := range lines {
		bases = append(bases, base)
	}
	slices.Sort(bases)
	return bases
}
