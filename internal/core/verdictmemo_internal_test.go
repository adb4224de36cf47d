package core

import (
	"testing"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
	"mumak/internal/oracle"
	"mumak/internal/stack"
)

// stampedTree builds a frozen tree with one leaf per stamp, at
// increasing instruction counters.
func stampedTree(stamps ...imageKey) *fpt.Tree {
	st := stack.NewTable()
	tree := fpt.New(st)
	for i, k := range stamps {
		leaf, _ := tree.Insert(st.Intern([]uintptr{uintptr(i + 1)}), uint64(10*(i+1)))
		leaf.ImageHash, leaf.ImageSize = k.hash, k.size
	}
	tree.Freeze()
	return tree
}

func TestImageCacheFirstVerdictWins(t *testing.T) {
	k := imageKey{hash: 9, size: 1 << 16}
	tree := stampedTree(k, k)
	leaves := tree.LeavesByICount()
	m := &mergeState{memo: make(map[imageKey]campaign.Judgement)}
	first := campaign.Judgement{Verdict: oracle.Unrecoverable, Detail: "first"}
	m.remember(leaves[0], campaign.Record{Injected: true, Judgement: first})
	// A later judgement of the same image must not replace the entry.
	m.remember(leaves[1], campaign.Record{Injected: true, Judgement: campaign.Judgement{Verdict: oracle.Consistent}})
	if got, ok := m.memo[k]; !ok || got != first {
		t.Errorf("memo[%v] = (%+v, %v), want the first judgement", k, got, ok)
	}
	if len(m.memo) != 1 {
		t.Errorf("memo holds %d entries after a duplicate judgement, want 1", len(m.memo))
	}
	// A leaf consumed without an injection (skipped, or a target crash)
	// has no verdict to remember.
	other := imageKey{hash: 10, size: 1 << 16}
	skipped := stampedTree(other).Leaves()[0]
	m.remember(skipped, campaign.Record{SkipReason: "never reached"})
	if _, ok := m.memo[other]; ok {
		t.Error("an outcome without an injection filled the memo")
	}
}

func TestImageCacheKeyDiscriminates(t *testing.T) {
	seeded := imageKey{hash: 5, size: 100}
	sameHash := imageKey{hash: 5, size: 200}
	sameSize := imageKey{hash: 6, size: 100}
	tree := stampedTree(seeded, sameHash, sameSize, sameHash)
	leaves := tree.LeavesByICount()
	memo := map[imageKey]campaign.Judgement{seeded: {Verdict: oracle.Crashed, Detail: "seeded"}}
	plan := classPlan{reps: make(map[imageKey]int), atMerge: make(map[int]bool)}
	for _, leaf := range leaves {
		plan.add(leaf, memo)
	}

	// Only the exact (hash, size) key the memo holds resolves at merge;
	// the first leaf of every other key is judged, and later members of
	// its class wait for its verdict at merge.
	for i, want := range []bool{true, false, false, true} {
		if got := plan.deferred(leaves[i]); got != want {
			t.Errorf("leaf %d stamped %v: deferred = %v, want %v", i, stampOf(leaves[i]), got, want)
		}
	}

	m := &mergeState{memo: memo, plan: plan}
	out := m.resolve(leaves[0])
	if !out.Injected || out.Source != campaign.Cached || out.Judgement != memo[seeded] {
		t.Errorf("seeded leaf resolved to %+v, want the cached Crashed verdict", out)
	}
	if f := leafFinding(leaves[0], out.Record); f == nil || f.ICount != leaves[0].FirstICount || f.Stack != leaves[0].Stack {
		t.Errorf("seeded leaf's finding = %+v, want one at its own instruction counter and call stack", f)
	}
}
