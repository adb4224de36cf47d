package core

import (
	"fmt"
	"sort"

	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
)

// evRef compactly identifies one analysed instruction: its engine
// instruction counter, the record's start address, and the stack captured
// at the instruction (stack.NoID when capture was off for its class). It
// replaces the trace-record indices the offline pass used to keep, so the
// analyzer never retains a trace.Record slice or payload buffer.
type evRef struct {
	icount uint64
	addr   uint64
	stack  stack.ID
}

// lineState tracks one cache line across the analysis. Its memory is the
// analyzer's working set: a fixed-size core plus the pending refs that a
// write-back clears, so resident state is proportional to live (not yet
// persisted) cache lines rather than to trace length.
type lineState struct {
	// dirty marks bytes stored (through the cache) since the line's
	// last write-back. It mirrors the engine's dirty bitmask: a
	// non-temporal store does NOT clear it — the cached bytes remain
	// dirty and a later flush still queues a real write-back.
	dirty uint64
	// unpersisted marks cached-store bytes whose data is not yet on its
	// way to the medium by any route. It starts out equal to dirty but a
	// non-temporal store clears the bytes it covers: the NT write
	// carries the same addresses into the write-pending queue, so the
	// earlier cached stores no longer need an explicit flush to become
	// durable. This is the mask the durability patterns consult.
	unpersisted uint64
	// unflushed holds the store events contributing unpersisted bytes
	// not yet covered by any flush or non-temporal overwrite.
	unflushed []evRef
	// storesSinceFlush counts contributing store events since the last
	// write-back, for the multi-store-flush warning.
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
	// flushedSinceStore is true when the line is clean and already
	// written back: a further flush is redundant.
	flushedSinceStore bool
}

// Approximate per-unit resident costs of the analyzer state, used for the
// state-size gauges: a lineState plus its map slot, and one evRef.
const (
	lineStateCost = 128
	evRefCost     = 24
)

// Analyzer is the §4.2 pattern matcher as an online pmem.Hook: it
// consumes the persistency-instruction stream while the workload executes
// and emits findings at Finalize. Because it keeps only per-cache-line
// state, analysing a workload needs memory proportional to the number of
// live cache lines, not to the trace length — the property that lets
// cmd/mumak default to the paper's 150 000-op workloads.
//
// The offline front-end AnalyzeTrace replays a recorded trace through the
// same implementation, so streaming and offline analyses produce
// identical findings.
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

	// State-size gauges: live refs across all lines plus ntPending, and
	// the peaks Result.AnalyzerPeakLines/AnalyzerPeakStateBytes report.
	liveRefs       int
	peakLines      int
	peakStateBytes uint64
}

// NewAnalyzer returns an online analyzer for one execution. Attach it to
// the instrumented engine (it implements pmem.Hook) or feed it a recorded
// trace via AnalyzeTrace, then collect findings with Finalize. Its
// findings include warnings only when cfg.KeepWarnings is set.
func NewAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{cfg: cfg, lines: make(map[uint64]*lineState)}
}

func (a *Analyzer) lineOf(addr uint64) *lineState {
	base := addr &^ (pmem.CacheLineSize - 1)
	st := a.lines[base]
	if st == nil {
		st = &lineState{}
		a.lines[base] = st
		if n := len(a.lines); n > a.peakLines {
			a.peakLines = n
		}
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
		Stack:  ref.stack,
		Detail: detail,
	})
}

// WantsStack implements pmem.StackDemand: the analyzer never asks for a
// stack. Analyze's debug-information pass (resolveStacks) sets the stack
// of every finding it reports, so the analyzer records whatever stacks
// other hooks requested and nothing more.
func (a *Analyzer) WantsStack(*pmem.Event) bool { return false }

// OnEvent implements pmem.Hook: one §4.2 pattern step per instruction.
func (a *Analyzer) OnEvent(ev *pmem.Event) {
	if ev.Op == pmem.OpLoad {
		return
	}
	a.events++
	ref := evRef{icount: ev.ICount, addr: ev.Addr, stack: ev.Stack}
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
// RMW) dirty on every line it touches.
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
			st.overwrites = append(st.overwrites, ref)
			a.liveRefs++
		}
		st.dirty |= mask
		st.unpersisted |= mask
		if !a.cfg.EADR {
			st.unflushed = append(st.unflushed, ref)
			a.liveRefs++
		}
		st.storesSinceFlush++
		st.flushedSinceStore = false
		addr += n
		size -= n
	}
}

// applyNTStore models a non-temporal store as writing through: the
// covered bytes join the write-pending queue directly, so overlapping
// unpersisted cached bytes no longer need an explicit flush to become
// durable (their addresses are persisted by the NT write). The line's
// engine dirty mask is untouched — an NT store to a cached line does not
// clean the cache, and a later flush still performs a real write-back —
// but a line whose only writes were non-temporal is marked so a flush of
// it can be recognised as having nothing cached to persist.
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
	} else if st.flushedSinceStore {
		a.add(report.RedundantFlush, ref,
			"the line was not written since its previous write-back")
	} else if st.dirty == 0 && st.everFlushed {
		a.add(report.RedundantFlush, ref, "the line holds no unpersisted data")
	} else if st.dirty == 0 && st.ntWritten {
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
	st.dirty = 0
	st.unpersisted = 0
	a.liveRefs -= len(st.unflushed) + len(st.overwrites)
	st.unflushed = nil
	st.overwrites = nil
	st.storesSinceFlush = 0
	st.everFlushed = true
	st.flushedSinceStore = true
	if ev.Op != pmem.OpCLFlush {
		a.flushesSinceFence++
	}
}

func (a *Analyzer) clearNTPending() {
	a.liveRefs -= len(a.ntPending)
	a.ntPending = a.ntPending[:0]
}

func lineMask(off, n uint64) uint64 {
	var mask uint64
	for b := uint64(0); b < n; b++ {
		mask |= 1 << (off + b)
	}
	return mask
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

// PeakLiveLines returns the maximum number of simultaneously tracked
// cache lines.
func (a *Analyzer) PeakLiveLines() int { return a.peakLines }

// PeakStateBytes returns the peak approximate resident analyzer state:
// line structures plus pending event refs. It deliberately excludes the
// emitted findings, which are output rather than working state.
func (a *Analyzer) PeakStateBytes() uint64 { return a.peakStateBytes }

func (a *Analyzer) stateBytes() uint64 {
	return uint64(len(a.lines))*lineStateCost + uint64(a.liveRefs)*evRefCost
}
