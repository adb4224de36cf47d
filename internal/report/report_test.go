package report

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mumak/internal/stack"
	"mumak/internal/taxonomy"
)

func TestKindClassification(t *testing.T) {
	cases := map[Kind]struct {
		warning bool
		class   taxonomy.Class
	}{
		CrashConsistency:     {false, taxonomy.Atomicity},
		TargetCrash:          {false, taxonomy.Liveness},
		RecoveryHang:         {false, taxonomy.Liveness},
		Durability:           {false, taxonomy.Durability},
		DirtyOverwrite:       {false, taxonomy.Durability},
		RedundantFlush:       {false, taxonomy.RedundantFlush},
		RedundantFence:       {false, taxonomy.RedundantFence},
		WarnTransientData:    {true, taxonomy.TransientData},
		WarnMultiStoreFlush:  {true, taxonomy.RedundantFlush},
		WarnFenceOrdering:    {true, taxonomy.Ordering},
		WarnRedundantNTFlush: {true, taxonomy.RedundantFlush},
	}
	for k, want := range cases {
		if k.IsWarning() != want.warning {
			t.Errorf("%v IsWarning = %v", k, k.IsWarning())
		}
		if k.Class() != want.class {
			t.Errorf("%v Class = %v, want %v", k, k.Class(), want.class)
		}
	}
}

func TestUniqueCollapsesSameStack(t *testing.T) {
	st := stack.NewTable()
	id := st.Intern([]uintptr{1, 2, 3})
	r := &Report{Stacks: st}
	for i := 0; i < 5; i++ {
		r.Add(Finding{Kind: CrashConsistency, ICount: uint64(i), Stack: id})
	}
	r.Add(Finding{Kind: CrashConsistency, ICount: 99, Stack: st.Intern([]uintptr{9})})
	if got := len(r.Unique()); got != 2 {
		t.Fatalf("unique = %d, want 2", got)
	}
}

func TestUniqueFallsBackToAddress(t *testing.T) {
	r := &Report{}
	r.Add(Finding{Kind: RedundantFlush, Addr: 64, Stack: stack.NoID})
	r.Add(Finding{Kind: RedundantFlush, Addr: 64, Stack: stack.NoID})
	r.Add(Finding{Kind: RedundantFlush, Addr: 128, Stack: stack.NoID})
	if got := len(r.Unique()); got != 2 {
		t.Fatalf("unique = %d, want 2", got)
	}
}

// TestFindingsWithoutStackDedupeByAddress: a finding whose Stack is
// never set, as no baseline sets it, carries no stack. Unique tells such
// findings apart by address, and neither Format nor WriteJSON renders a
// stack for them, whatever the report's stack table holds.
func TestFindingsWithoutStackDedupeByAddress(t *testing.T) {
	interned := stack.NewTable()
	interned.Intern([]uintptr{1, 2, 3})
	var plain string
	for _, stacks := range []*stack.Table{nil, stack.NewTable(), interned} {
		r := &Report{Target: "t", Tool: "baseline", Stacks: stacks}
		r.Add(Finding{Kind: CrashConsistency, ICount: 10, Addr: 0x40})
		r.Add(Finding{Kind: CrashConsistency, ICount: 11, Addr: 0x80})
		r.Add(Finding{Kind: CrashConsistency, ICount: 12, Addr: 0x40})
		if got := len(r.Unique()); got != 2 {
			t.Fatalf("unique = %d, want 2 (one per address)", got)
		}
		text := r.Format(true)
		if stacks == nil {
			plain = text
		}
		if strings.Contains(text, "no stack") || text != plain {
			t.Fatalf("report renders a stack for findings without one:\n%s", text)
		}
		var js strings.Builder
		if err := r.WriteJSON(&js, true); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(js.String(), "bug_path") {
			t.Fatalf("JSON report carries a bug path for findings without a stack:\n%s", js.String())
		}
	}
}

func TestBugsExcludeWarnings(t *testing.T) {
	r := &Report{}
	r.Add(Finding{Kind: CrashConsistency, Addr: 1})
	r.Add(Finding{Kind: WarnTransientData, Addr: 2})
	if len(r.Bugs()) != 1 || len(r.Warnings()) != 1 {
		t.Fatalf("bugs=%d warnings=%d", len(r.Bugs()), len(r.Warnings()))
	}
}

func TestFormatMentionsCounts(t *testing.T) {
	r := &Report{Target: "t", Tool: "Mumak"}
	r.Add(Finding{Kind: RedundantFence, ICount: 3, Detail: "why"})
	out := r.Format(true)
	if !strings.Contains(out, "1 unique bug(s)") || !strings.Contains(out, "redundant fence") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestPropertyUniqueIdempotent(t *testing.T) {
	f := func(kinds []uint8, addrs []uint16) bool {
		r := &Report{}
		for i := range kinds {
			addr := uint64(0)
			if i < len(addrs) {
				addr = uint64(addrs[i])
			}
			r.Add(Finding{Kind: Kind(kinds[i] % 9), Addr: addr, Stack: stack.NoID})
		}
		u1 := r.Unique()
		r2 := &Report{Findings: u1}
		u2 := r2.Unique()
		return len(u1) == len(u2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteJSON(t *testing.T) {
	st := stack.NewTable()
	r := &Report{Target: "t", Tool: "Mumak", Stacks: st}
	r.Add(Finding{Kind: CrashConsistency, ICount: 7, Addr: 0x40, Detail: "boom",
		Stack: st.Intern([]uintptr{1})})
	r.Add(Finding{Kind: WarnTransientData, ICount: 9})
	var buf strings.Builder
	if err := r.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"bugs": 1`, `"warnings": 1`, `"0x40"`, `"crash-consistency bug"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON lacks %s:\n%s", want, out)
		}
	}
}

func TestConcurrentAddAndQuarantine(t *testing.T) {
	// Add and Quarantine may race on the shared report; under -race this
	// test proves both are safe and that nothing is lost.
	r := &Report{Target: "t", Tool: "Mumak"}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				icount := uint64(g*per + i)
				if g%2 == 0 {
					r.Add(Finding{Kind: CrashConsistency, ICount: icount, Stack: stack.NoID})
				} else {
					r.Quarantine(QuarantinedLeaf{LeafID: g*per + i, ICount: icount, Stack: stack.NoID})
				}
			}
		}()
	}
	wg.Wait()
	if got, want := len(r.Findings)+len(r.Quarantined), workers*per; got != want {
		t.Fatalf("lost entries: %d findings and %d quarantined, want %d in all",
			len(r.Findings), len(r.Quarantined), want)
	}
}

// TestFormatMarkersAndQuarantine: the human-readable rendering carries
// the partial-report markers and the quarantine section.
func TestFormatMarkersAndQuarantine(t *testing.T) {
	stacks := stack.NewTable()
	rep := &Report{Target: "btree", Tool: "mumak", Stacks: stacks}
	rep.Add(Finding{
		Kind: CrashConsistency, ICount: 42, Addr: 0x40,
		Stack: stacks.Intern([]uintptr{10, 20, 30}), Detail: "unflushed line",
	})
	rep.Quarantine(QuarantinedLeaf{
		LeafID: 3, ICount: 99, Stack: stacks.Intern([]uintptr{12, 20, 30}),
		Reason: "replay failed before the failure point", Retries: 2,
	})
	rep.Interrupted = true
	rep.BudgetExhausted = true
	text := rep.Format(false)
	for _, want := range []string{
		"quarantined failure points: 1",
		"replay failed before the failure point",
		"campaign interrupted",
		"analysis budget exhausted",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Format output lacks %q:\n%s", want, text)
		}
	}
	clean := &Report{Target: "t", Tool: "m"}
	text = clean.Format(false)
	for _, absent := range []string{"quarantined", "interrupted", "exhausted"} {
		if strings.Contains(text, absent) {
			t.Errorf("clean report mentions %q:\n%s", absent, text)
		}
	}
}
