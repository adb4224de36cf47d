package core

import (
	"testing"

	"mumak/internal/apps/apptest"
	"mumak/internal/apps/btree"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/stack"
)

// TestClassingStampMatchesReplayHash pins the tentpole invariant behind
// phase-1 classing: the prefix-image hash the builder reads when a
// leaf is created equals the PrefixImageHash a replay crashed at that
// leaf's counter computes — the engine crashes before the failure-point
// instruction mutates anything, so the stamp and the replay see the
// same persisted prefix. If this drifts, classes group leaves whose
// crash images differ and the differential suite fails loudly; this
// test localises the breakage to the stamping layer.
func TestClassingStampMatchesReplayHash(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSeeded(btree.BugCountOutsideTx)) }
	w := testWorkload()
	stacks := stack.NewTable()
	tree := fpt.New(stacks)
	builder := fpt.NewBuilder(tree, fpt.GranPersistency)
	_, sig, err := harness.Execute(mk(), w, pmem.Options{
		Capture: pmem.CapturePersistency, Stacks: stacks,
	}, builder)
	if err != nil || sig != nil {
		t.Fatalf("instrumented run: sig=%v err=%v", sig, err)
	}
	leaves := tree.LeavesByICount()
	if len(leaves) == 0 {
		t.Fatal("instrumented run produced no failure points")
	}
	// Bound the replay count; the spread still covers early, middle and
	// late prefixes.
	stride := len(leaves)/32 + 1
	checked := 0
	for i := 0; i < len(leaves); i += stride {
		leaf := leaves[i]
		if leaf.ImageSize == 0 {
			t.Fatalf("leaf at instruction %d was not stamped", leaf.FirstICount)
		}
		img := apptest.Crash(t, mk(), w, leaf.FirstICount)
		if img == nil {
			t.Fatalf("replay never reached instruction %d", leaf.FirstICount)
		}
		if img.Hash() != leaf.ImageHash || img.Len() != leaf.ImageSize {
			t.Fatalf("leaf at instruction %d: stamp (%#x, %d) != replay image (%#x, %d)",
				leaf.FirstICount, leaf.ImageHash, leaf.ImageSize, img.Hash(), img.Len())
		}
		checked++
	}
	t.Logf("verified %d of %d leaf stamps against from-scratch replays", checked, len(leaves))
}
