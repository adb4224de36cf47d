package fpt_test

import (
	"fmt"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/apps/hashatomic"
	"mumak/internal/apps/levelhash"
	"mumak/internal/apps/rbtree"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// TestPassMatchesOneTargetPasses: one pass over every leaf of the tree,
// the target set of an unclassed stack-mode campaign, freezes for each
// leaf the image and crash counter a pass over that leaf alone freezes,
// which are the phase-1 stamp and first-occurrence counter of a
// deterministic target. So serving many leaves from one execution
// changes no image a recovery check sees. Phase 1 runs with the
// analyzer of both persistence domains, as a campaign's does.
func TestPassMatchesOneTargetPasses(t *testing.T) {
	w := workload.Generate(workload.Config{N: 80, Seed: 5, Keyspace: 40, PutFrac: 2, GetFrac: 1, DeleteFrac: 1})
	appCfg := apps.Config{PoolSize: 8 << 20, WithRecovery: true}
	sptCfg := appCfg
	sptCfg.SPT = true
	for _, tc := range []struct {
		name string
		app  harness.Application
	}{
		{"btree", btree.New(appCfg)},
		{"btree-spt", btree.New(sptCfg)},
		{"rbtree", rbtree.New(appCfg)},
		{"levelhash", levelhash.New(appCfg)},
		{"hashatomic", hashatomic.New(appCfg)},
	} {
		for _, eadr := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/eadr=%v", tc.name, eadr), func(t *testing.T) {
				stacks := stack.NewTable()
				tree := fpt.New(stacks)
				opts := pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks}
				_, sig, err := harness.Execute(tc.app, w, opts, fpt.NewBuilder(tree, fpt.GranPersistency),
					core.NewAnalyzer(core.Config{EADR: eadr}))
				if err != nil || sig != nil {
					t.Fatalf("instrumented run: sig=%v err=%v", sig, err)
				}
				tree.Freeze()
				leaves := tree.LeavesByICount()
				if len(leaves) == 0 {
					t.Fatal("instrumented run produced no failure points")
				}
				// pass serves targets in one execution, which must end
				// once the last target is served.
				pass := func(targets []*fpt.Leaf) ([]*pmem.Image, []uint64) {
					imgs, icounts := make([]*pmem.Image, len(targets)), make([]uint64, len(targets))
					_, sig, err := harness.Execute(tc.app, w, opts, fpt.NewPass(targets, fpt.GranPersistency,
						func(i int, img *pmem.Image, icount uint64) { imgs[i], icounts[i] = img, icount }, nil))
					if err != nil || sig == nil {
						t.Fatalf("pass over %d target(s) did not crash after serving them: sig=%v err=%v", len(targets), sig, err)
					}
					return imgs, icounts
				}
				imgs, icounts := pass(leaves)
				for i, leaf := range leaves {
					one, oneICount := pass([]*fpt.Leaf{leaf})
					if imgs[i] == nil {
						t.Fatalf("leaf %d: the full pass never served it", leaf.ID)
					}
					if got, want := imgs[i].Hash(), one[0].Hash(); got != want || icounts[i] != oneICount[0] {
						t.Fatalf("leaf %d: the full pass froze (%#x at %d), its own pass (%#x at %d)",
							leaf.ID, got, icounts[i], want, oneICount[0])
					}
					if imgs[i].Hash() != leaf.ImageHash || icounts[i] != leaf.FirstICount {
						t.Fatalf("leaf %d: the full pass froze (%#x at %d), phase 1 stamped (%#x at %d)",
							leaf.ID, imgs[i].Hash(), icounts[i], leaf.ImageHash, leaf.FirstICount)
					}
				}
			})
		}
	}
}
