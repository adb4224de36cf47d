package core

import (
	"fmt"
	"sort"

	"mumak/internal/pmem"
	"mumak/internal/report"
)

// evRef compactly identifies one analysed instruction: its engine
// instruction counter and start address. Its call stack is resolved in
// phase 3, and only for the findings the report keeps, so the analyzer
// retains no stacks, trace records or payload bytes.
type evRef struct {
	icount uint64
	addr   uint64
}

// lineState tracks one cache line across the analysis. Its memory is the
// analyzer's working set: a fixed-size core plus the pending refs that a
// write-back clears, so resident state is proportional to the cache
// lines the execution touches and the stores not yet persisted, rather
// than to trace length.
type lineState struct {
	// unpersisted marks cached-store bytes whose data is not yet on its
	// way to the medium by any route. A store sets its bytes and a
	// write-back clears them all; a non-temporal store clears the bytes
	// it covers too: the NT write bypasses the cache and sends the same
	// addresses towards memory, so the earlier cached stores no longer
	// need an explicit flush to become durable. This is the mask the
	// durability patterns consult.
	unpersisted uint64
	// unflushed holds the store events contributing unpersisted bytes
	// not yet covered by any flush or non-temporal overwrite.
	unflushed []evRef
	// storesSinceFlush counts contributing store events since the last
	// write-back: the line holds cached data to write back exactly when
	// it is positive (a non-temporal store does not count, and does not
	// clean the cache). The redundant-flush patterns and the
	// multi-store-flush warning read it.
	storesSinceFlush int
	// everFlushed records whether the line was flushed at any point of
	// the execution (distinguishing durability bugs from transient
	// data, §4.2).
	everFlushed bool
	// ntWritten records whether the line was ever written by a
	// non-temporal store; a flush of a line that only ever received NT
	// data has nothing cached to write back.
	ntWritten bool
	// overwrites collects the store events that overwrote unpersisted
	// bytes; they are reported as dirty overwrites only when the line
	// is never flushed at all, since rewriting a location several times
	// before one write-back is ordinary write combining. Once the line
	// has been flushed they can never be reported, so they are dropped
	// and no longer collected.
	overwrites []evRef
}

// Approximate per-unit resident costs of the analyzer state, used for the
// state-size gauges: a lineState plus its map slot, and one evRef.
const (
	lineStateCost = 128
	evRefCost     = 16
)

// A flush hands its line's emptied ref lists to the next line that
// starts one, so a line stored and flushed over and over (an undo log
// every transaction reuses) does not grow a fresh list each time. Only
// short lists are kept, and at most spareLists of them: a flush of many
// long lists (a commit) still frees them, and the lists of every line
// the run ever stored are not held for the rest of the campaign.
const (
	spareCap   = 8
	spareLists = 256
)

// Analyzer is the §4.2 pattern matcher as an online pmem.Hook: it
// consumes the persistency-instruction stream while the workload executes
// and emits findings at Finalize. Because it keeps only per-cache-line
// state, analysing a workload needs memory proportional to the number of
// cache lines it touches, not to the trace length — the property that
// lets cmd/mumak default to the paper's 150 000-op workloads.
type Analyzer struct {
	cfg   Config
	lines map[uint64]*lineState

	// Fence bookkeeping: flush instructions and non-temporal stores
	// since the last fence.
	flushesSinceFence int
	ntSinceFence      int
	ntPending         []evRef // NT store events awaiting a fence

	findings  []*report.Finding
	events    int
	finalized bool

	// spare holds emptied ref lists for reuse (see spareCap).
	spare [][]evRef

	// State-size gauges: pending refs across all lines plus ntPending,
	// and the peak Result.AnalyzerPeakStateBytes reports.
	liveRefs       int
	peakStateBytes uint64
}

// NewAnalyzer returns an online analyzer for one execution. Attach it to
// the instrumented engine (it implements pmem.Hook), then collect
// findings with Finalize. Its findings include warnings only when
// cfg.KeepWarnings is set, and carry no stack (stack.NoID) until
// Analyze's debug-information pass resolves them.
func NewAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{cfg: cfg, lines: make(map[uint64]*lineState)}
}

func (a *Analyzer) lineOf(addr uint64) *lineState {
	base := addr &^ (pmem.CacheLineSize - 1)
	st := a.lines[base]
	if st == nil {
		st = &lineState{}
		a.lines[base] = st
	}
	return st
}

// add records a finding. A warning is recorded only under
// Config.KeepWarnings; the report leaves the others out, so they are
// never built.
func (a *Analyzer) add(kind report.Kind, ref evRef, detail string) {
	if kind.IsWarning() && !a.cfg.KeepWarnings {
		return
	}
	a.findings = append(a.findings, &report.Finding{
		Kind:   kind,
		ICount: ref.icount,
		Addr:   ref.addr,
		Detail: detail,
	})
}

// WantsStack implements pmem.StackDemand: the analyzer never asks for a
// stack. Analyze's debug-information pass (resolveStacks) sets the stack
// of every finding it reports.
func (a *Analyzer) WantsStack(*pmem.Event) bool { return false }

// OnEvent implements pmem.Hook: one §4.2 pattern step per instruction.
func (a *Analyzer) OnEvent(ev *pmem.Event) {
	if ev.Op == pmem.OpLoad {
		return
	}
	a.events++
	ref := evRef{icount: ev.ICount, addr: ev.Addr}
	switch ev.Op {
	case pmem.OpStore, pmem.OpRMW:
		a.applyStore(ev, ref)
		if ev.Op == pmem.OpRMW {
			// RMW drains buffered flushes but is never itself a
			// redundant-fence candidate (it synchronises threads,
			// not persistence).
			a.flushesSinceFence = 0
			a.ntSinceFence = 0
			a.clearNTPending()
		}
	case pmem.OpNTStore:
		a.ntSinceFence++
		if !a.cfg.EADR {
			a.ntPending = append(a.ntPending, ref)
			a.liveRefs++
		}
		a.applyNTStore(ev)
	case pmem.OpCLFlush, pmem.OpCLFlushOpt, pmem.OpCLWB:
		a.applyFlush(ev, ref)
	case pmem.OpSFence, pmem.OpMFence:
		if a.flushesSinceFence == 0 && a.ntSinceFence == 0 {
			a.add(report.RedundantFence, ref,
				"no flush or non-temporal store since the previous fence")
		} else if a.flushesSinceFence+a.ntSinceFence > 1 && a.cfg.KeepWarnings {
			a.add(report.WarnFenceOrdering, ref, fmt.Sprintf(
				"%d write-backs race to this fence; orderings violating program order were not explored",
				a.flushesSinceFence+a.ntSinceFence))
		}
		a.flushesSinceFence = 0
		a.ntSinceFence = 0
		a.clearNTPending()
	}
	if bytes := a.stateBytes(); bytes > a.peakStateBytes {
		a.peakStateBytes = bytes
	}
}

// applyStore marks the bytes of a cached store (or the store half of an
// RMW) unpersisted on every line it touches.
func (a *Analyzer) applyStore(ev *pmem.Event, ref evRef) {
	addr, size := ev.Addr, uint64(ev.Size)
	for size > 0 {
		base := addr &^ (pmem.CacheLineSize - 1)
		st := a.lineOf(addr)
		off := addr - base
		n := pmem.CacheLineSize - off
		if n > size {
			n = size
		}
		mask := lineMask(off, n)
		if st.unpersisted&mask != 0 && !a.cfg.EADR && !st.everFlushed {
			// Overwrites are only ever reported for never-flushed
			// lines, so there is nothing to collect once the line has
			// been written back (or under eADR, which has no
			// durability patterns at all). Bytes already persisted via
			// a non-temporal overwrite are not dirty in this sense.
			st.overwrites = a.pushRef(st.overwrites, ref)
		}
		st.unpersisted |= mask
		if !a.cfg.EADR {
			st.unflushed = a.pushRef(st.unflushed, ref)
		}
		st.storesSinceFlush++
		addr += n
		size -= n
	}
}

// applyNTStore models a non-temporal store as writing through: the
// covered bytes bypass the cache on their way to memory, so overlapping
// unpersisted cached bytes no longer need an explicit flush to become
// durable (their addresses are persisted by the NT write once fenced).
// The line's store count is untouched — an NT store to a cached line
// does not clean the cache, and a later flush still performs a real
// write-back — but a line whose only writes were non-temporal is marked
// so a flush of it can be recognised as having nothing cached to
// persist.
func (a *Analyzer) applyNTStore(ev *pmem.Event) {
	addr, size := ev.Addr, uint64(ev.Size)
	for size > 0 {
		base := addr &^ (pmem.CacheLineSize - 1)
		st := a.lineOf(addr)
		off := addr - base
		n := pmem.CacheLineSize - off
		if n > size {
			n = size
		}
		st.unpersisted &^= lineMask(off, n)
		if st.unpersisted == 0 && len(st.unflushed) > 0 {
			// Every unpersisted byte was overwritten non-temporally:
			// the earlier stores can no longer be durability findings.
			a.liveRefs -= len(st.unflushed)
			st.unflushed = st.unflushed[:0]
		}
		st.ntWritten = true
		addr += n
		size -= n
	}
}

// applyFlush runs the redundant-flush patterns and clears the line.
func (a *Analyzer) applyFlush(ev *pmem.Event, ref evRef) {
	st := a.lineOf(ev.Addr)
	if a.cfg.EADR {
		// The persistence domain includes the caches: every cache
		// flush is wasted work (§4.3).
		a.add(report.RedundantFlush, ref, "cache flushes are unnecessary on an eADR system")
	} else if st.everFlushed && st.storesSinceFlush == 0 {
		a.add(report.RedundantFlush, ref,
			"the line was not written since its previous write-back")
	} else if st.storesSinceFlush == 0 && st.ntWritten {
		// First flush of a line whose only writes were non-temporal:
		// nothing is cached, so the flush persists nothing the NT
		// stores' fence would not. Advisory only — persisting a range
		// over freshly NT-zeroed blocks is a common library idiom.
		a.add(report.WarnRedundantNTFlush, ref,
			"the line was written only non-temporally; there is nothing cached to write back")
	}
	if st.storesSinceFlush > 1 && a.cfg.KeepWarnings {
		a.add(report.WarnMultiStoreFlush, ref, fmt.Sprintf(
			"one flush covers %d separate stores; the layout may differ on other platforms",
			st.storesSinceFlush))
	}
	st.unpersisted = 0
	a.liveRefs -= len(st.unflushed) + len(st.overwrites)
	a.release(st.unflushed)
	a.release(st.overwrites)
	st.unflushed = nil
	st.overwrites = nil
	st.storesSinceFlush = 0
	st.everFlushed = true
	if ev.Op != pmem.OpCLFlush {
		a.flushesSinceFence++
	}
}

func (a *Analyzer) clearNTPending() {
	a.liveRefs -= len(a.ntPending)
	a.ntPending = a.ntPending[:0]
}

// pushRef appends ref to a line's list l, starting an empty list from a
// spare one.
func (a *Analyzer) pushRef(l []evRef, ref evRef) []evRef {
	if n := len(a.spare); cap(l) == 0 && n > 0 {
		l = a.spare[n-1]
		a.spare = a.spare[:n-1]
	}
	a.liveRefs++
	return append(l, ref)
}

// release keeps a list a flush emptied for reuse when it is short and
// there is room; the caller drops its own reference.
func (a *Analyzer) release(l []evRef) {
	if c := cap(l); c > 0 && c <= spareCap && len(a.spare) < spareLists {
		a.spare = append(a.spare, l[:0])
	}
}

// lineMask returns the mask of n bytes from offset off of a line, where
// off+n <= 64. A shift by 64 gives 0, so a whole line sets every bit.
func lineMask(off, n uint64) uint64 {
	return (uint64(1)<<n - 1) << off
}

// Finalize runs the end-of-trace patterns — stores that were never
// persisted — and returns the findings. Further events are not
// expected, and repeated calls return the same findings.
func (a *Analyzer) Finalize() []*report.Finding {
	if a.finalized {
		return a.findings
	}
	a.finalized = true
	// Under eADR every store is durable once visible, so the durability
	// and transient-data patterns do not apply (§4.3).
	if !a.cfg.EADR {
		bases := make([]uint64, 0, len(a.lines))
		for base := range a.lines {
			bases = append(bases, base)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		// A store spanning two lines contributes refs to both; report
		// each instruction once.
		reported := map[uint64]bool{}
		for _, base := range bases {
			st := a.lines[base]
			for _, ref := range st.unflushed {
				if reported[ref.icount] {
					continue
				}
				reported[ref.icount] = true
				if st.everFlushed {
					a.add(report.Durability, ref,
						"store never explicitly persisted although its line is flushed elsewhere in the execution")
				} else {
					a.add(report.WarnTransientData, ref,
						"store to a region that is never flushed; consider volatile memory")
				}
			}
			if !st.everFlushed {
				for _, ref := range st.overwrites {
					a.add(report.DirtyOverwrite, ref,
						"address written repeatedly and never persisted; the data belongs in volatile memory")
				}
			}
		}
		for _, ref := range a.ntPending {
			if !reported[ref.icount] {
				reported[ref.icount] = true
				a.add(report.Durability, ref,
					"non-temporal store never fenced; its durability is not guaranteed")
			}
		}
	}
	return a.findings
}

// Events returns the number of analysed instructions (loads excluded),
// the streaming equivalent of the recorded-trace length.
func (a *Analyzer) Events() int { return a.events }

// PeakLiveLines returns the number of cache lines the analyzer tracks:
// every line the execution touched, since a line's state outlives its
// write-backs (everFlushed, ntWritten).
func (a *Analyzer) PeakLiveLines() int { return len(a.lines) }

// PeakStateBytes returns the peak approximate resident analyzer state:
// line structures plus pending event refs. It deliberately excludes the
// emitted findings, which are output rather than working state.
func (a *Analyzer) PeakStateBytes() uint64 { return a.peakStateBytes }

func (a *Analyzer) stateBytes() uint64 {
	return uint64(len(a.lines))*lineStateCost + uint64(a.liveRefs)*evRefCost
}
