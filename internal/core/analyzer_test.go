package core_test

import (
	"testing"

	"mumak/internal/core"
	"mumak/internal/pmem"
	"mumak/internal/report"
)

// feed pushes synthetic events through the online analyzer and returns
// the findings.
func feed(cfg core.Config, evs []pmem.Event) ([]*report.Finding, *core.Analyzer) {
	a := core.NewAnalyzer(cfg)
	for i := range evs {
		a.OnEvent(&evs[i])
	}
	return a.Finalize(), a
}

func kinds(fs []*report.Finding) map[report.Kind]int {
	out := map[report.Kind]int{}
	for _, f := range fs {
		out[f.Kind]++
	}
	return out
}

// A cached store fully overwritten by a non-temporal store is persisted
// by the NT write's fence: the stale pending entry must not surface as a
// durability bug (the line is flushed elsewhere in the execution) — the
// NT-store blind spot this PR fixes.
func TestNTStoreClearsStaleUnflushedStore(t *testing.T) {
	fs, _ := feed(core.Config{KeepWarnings: true}, []pmem.Event{
		{ICount: 1, Op: pmem.OpStore, Addr: 0x1000, Size: 8},
		{ICount: 2, Op: pmem.OpCLWB, Addr: 0x1000, Size: 64},
		{ICount: 3, Op: pmem.OpSFence},
		{ICount: 4, Op: pmem.OpStore, Addr: 0x1000, Size: 8},
		{ICount: 5, Op: pmem.OpNTStore, Addr: 0x1000, Size: 8},
		{ICount: 6, Op: pmem.OpSFence},
	})
	got := kinds(fs)
	if got[report.Durability] != 0 {
		t.Fatalf("NT-covered store reported as durability bug: %v", fs)
	}
	if got[report.WarnTransientData] != 0 {
		t.Fatalf("NT-covered store reported as transient data: %v", fs)
	}
}

// Same blind spot on a never-flushed line: without the fix the store at
// icount 1 lingers in the pending set and is flagged as transient data.
func TestNTStoreClearsTransientDataWarning(t *testing.T) {
	fs, _ := feed(core.Config{KeepWarnings: true}, []pmem.Event{
		{ICount: 1, Op: pmem.OpStore, Addr: 0x2000, Size: 16},
		{ICount: 2, Op: pmem.OpNTStore, Addr: 0x2000, Size: 16},
		{ICount: 3, Op: pmem.OpSFence},
	})
	if len(fs) != 0 {
		t.Fatalf("clean store+NT-overwrite sequence produced findings: %v", kinds(fs))
	}
}

// Partial NT coverage must clear only the covered bytes: the rest of the
// store is still unpersisted and the transient-data pattern still fires.
func TestNTStorePartialCoverageKeepsPattern(t *testing.T) {
	fs, _ := feed(core.Config{KeepWarnings: true}, []pmem.Event{
		{ICount: 1, Op: pmem.OpStore, Addr: 0x3000, Size: 16},
		{ICount: 2, Op: pmem.OpNTStore, Addr: 0x3000, Size: 8}, // covers half
		{ICount: 3, Op: pmem.OpSFence},
	})
	if got := kinds(fs); got[report.WarnTransientData] != 1 {
		t.Fatalf("partially covered store not reported as transient data: %v", got)
	}
}

// A flush of a line whose only writes were non-temporal persists nothing
// the NT fence would not: recognised as redundant, but advisory only —
// persisting a range over NT-zeroed blocks is a common library idiom.
func TestFlushOfNTOnlyLineWarns(t *testing.T) {
	fs, _ := feed(core.Config{KeepWarnings: true}, []pmem.Event{
		{ICount: 1, Op: pmem.OpNTStore, Addr: 0x4000, Size: 64},
		{ICount: 2, Op: pmem.OpSFence},
		{ICount: 3, Op: pmem.OpCLWB, Addr: 0x4000, Size: 64},
		{ICount: 4, Op: pmem.OpSFence},
	})
	got := kinds(fs)
	if got[report.WarnRedundantNTFlush] != 1 {
		t.Fatalf("flush of NT-only line not recognised: %v", got)
	}
	if got[report.RedundantFlush] != 0 {
		t.Fatalf("flush of NT-only line escalated to a bug: %v", got)
	}
	for _, f := range fs {
		if f.Kind == report.WarnRedundantNTFlush && f.ICount != 3 {
			t.Fatalf("warning anchored at icount %d, want 3", f.ICount)
		}
	}
}

// The pre-existing NT pattern is preserved: a non-temporal store never
// followed by any fence has no durability guarantee.
func TestUnfencedNTStoreStillReported(t *testing.T) {
	fs, _ := feed(core.Config{}, []pmem.Event{
		{ICount: 1, Op: pmem.OpNTStore, Addr: 0x5000, Size: 8},
	})
	if got := kinds(fs); got[report.Durability] != 1 {
		t.Fatalf("unfenced NT store not reported: %v", got)
	}
}

// Redundant flushes and fences are detected online, exactly as the
// offline pass detected them.
func TestStreamingDetectsRedundantFlushAndFence(t *testing.T) {
	fs, _ := feed(core.Config{}, []pmem.Event{
		{ICount: 1, Op: pmem.OpStore, Addr: 0x6000, Size: 8},
		{ICount: 2, Op: pmem.OpCLWB, Addr: 0x6000, Size: 64},
		{ICount: 3, Op: pmem.OpSFence},
		{ICount: 4, Op: pmem.OpCLWB, Addr: 0x6000, Size: 64}, // nothing new to write back
		{ICount: 5, Op: pmem.OpSFence},
		{ICount: 6, Op: pmem.OpSFence}, // nothing pending at all
	})
	got := kinds(fs)
	if got[report.RedundantFlush] != 1 || got[report.RedundantFence] != 1 {
		t.Fatalf("redundant flush/fence not detected: %v", got)
	}
}

// The analyzer's working set must be proportional to the cache lines
// touched, not trace length: hammering one line for many persist cycles
// keeps the peak state constant.
func TestAnalyzerStateStaysFlat(t *testing.T) {
	a := core.NewAnalyzer(core.Config{})
	ic := uint64(0)
	next := func() uint64 { ic++; return ic }
	for i := 0; i < 10000; i++ {
		evs := []pmem.Event{
			{ICount: next(), Op: pmem.OpStore, Addr: 0x7000, Size: 8},
			{ICount: next(), Op: pmem.OpCLWB, Addr: 0x7000, Size: 64},
			{ICount: next(), Op: pmem.OpSFence},
		}
		for j := range evs {
			a.OnEvent(&evs[j])
		}
	}
	if a.PeakLiveLines() != 1 {
		t.Fatalf("%d cache lines tracked, want 1", a.PeakLiveLines())
	}
	if a.PeakStateBytes() > 1024 {
		t.Fatalf("peak state = %d bytes for a single-line workload", a.PeakStateBytes())
	}
	if a.Events() != 30000 {
		t.Fatalf("events = %d, want 30000", a.Events())
	}
}

// A line stored and flushed over and over, as an undo log every
// transaction reuses is, costs the analyzer no allocation once it has
// one list: a flush hands the emptied list to the line's next store.
func TestAnalyzerReusesFlushedRefLists(t *testing.T) {
	a := core.NewAnalyzer(core.Config{})
	ic := uint64(0)
	evs := []pmem.Event{
		{Op: pmem.OpStore, Addr: 0x7000, Size: 8},
		{Op: pmem.OpStore, Addr: 0x7008, Size: 8},
		{Op: pmem.OpCLWB, Addr: 0x7000, Size: 64},
		{Op: pmem.OpStore, Addr: 0x8000, Size: 8},
		{Op: pmem.OpCLFlushOpt, Addr: 0x8000, Size: 64},
		{Op: pmem.OpSFence},
	}
	cycle := func() {
		for j := range evs {
			ic++
			evs[j].ICount = ic
			a.OnEvent(&evs[j])
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a store-and-flush cycle over two lines allocates %.1f objects, want 0", allocs)
	}
	if got := a.Finalize(); len(got) != 0 {
		t.Fatalf("clean cycles yield findings: %v", kinds(got))
	}
}

// The analyzer builds warnings only when the report keeps them. On one
// trace that raises every warning kind beside three bugs, KeepWarnings
// yields the warnings, and without it the analyzer yields exactly the
// same bugs and nothing else.
func TestAnalyzerBuildsWarningsOnlyWhenKept(t *testing.T) {
	evs := []pmem.Event{
		{ICount: 1, Op: pmem.OpStore, Addr: 0x1000, Size: 8},
		{ICount: 2, Op: pmem.OpStore, Addr: 0x1008, Size: 8},
		{ICount: 3, Op: pmem.OpCLWB, Addr: 0x1000, Size: 64}, // multi-store flush
		{ICount: 4, Op: pmem.OpStore, Addr: 0x2000, Size: 8},
		{ICount: 5, Op: pmem.OpCLWB, Addr: 0x2000, Size: 64},
		{ICount: 6, Op: pmem.OpSFence}, // fence ordering: two write-backs
		{ICount: 7, Op: pmem.OpSFence}, // redundant fence
		{ICount: 8, Op: pmem.OpNTStore, Addr: 0x4000, Size: 64},
		{ICount: 9, Op: pmem.OpSFence},
		{ICount: 10, Op: pmem.OpCLWB, Addr: 0x4000, Size: 64},    // NT-only line
		{ICount: 11, Op: pmem.OpCLFlush, Addr: 0x4000, Size: 64}, // redundant flush
		{ICount: 12, Op: pmem.OpSFence},
		{ICount: 13, Op: pmem.OpStore, Addr: 0x3000, Size: 8}, // transient data
		{ICount: 14, Op: pmem.OpStore, Addr: 0x1010, Size: 8}, // durability
	}
	kept, _ := feed(core.Config{KeepWarnings: true}, append([]pmem.Event(nil), evs...))
	dropped, _ := feed(core.Config{}, append([]pmem.Event(nil), evs...))

	got := kinds(kept)
	for _, k := range []report.Kind{report.WarnMultiStoreFlush, report.WarnFenceOrdering,
		report.WarnRedundantNTFlush, report.WarnTransientData,
		report.RedundantFence, report.RedundantFlush, report.Durability} {
		if got[k] != 1 {
			t.Errorf("KeepWarnings: %d %v finding(s), want 1 (all: %v)", got[k], k, got)
		}
	}
	var bugs []report.Finding
	for _, f := range kept {
		if !f.Kind.IsWarning() {
			bugs = append(bugs, *f)
		}
	}
	if len(dropped) != len(bugs) {
		t.Fatalf("without KeepWarnings: %d findings %v, want the %d bugs", len(dropped), kinds(dropped), len(bugs))
	}
	for i, f := range dropped {
		if *f != bugs[i] {
			t.Errorf("finding %d without KeepWarnings is %+v, want %+v", i, *f, bugs[i])
		}
	}
}
