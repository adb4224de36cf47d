package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// TestCheckpointRestoreMatchesFromScratchAcrossRegistry is the
// restore-fidelity contract at the pipeline level: for every registry
// target, seed and persistence domain, restoring the instrumented run's
// nearest checkpoint and replaying the mutation-log gap must reproduce
// — bit for bit — the crash state a from-scratch replay reaches at the
// same leaf counter. Compared is everything the campaign observes: the
// counter, the graceful-crash image and its dedup-cache hash, and the
// power-cut snapshot. (Engine-internal state equality — cache lines,
// queue, rolling hash — is proven in internal/pmem.)
func TestCheckpointRestoreMatchesFromScratchAcrossRegistry(t *testing.T) {
	for _, eadr := range []bool{false, true} {
		for _, seed := range []int64{11, 4242} {
			w := workload.Generate(workload.Config{N: 250, Seed: seed, Keyspace: 100,
				PutFrac: 2, GetFrac: 1, DeleteFrac: 1})
			for _, name := range apps.Names() {
				name, eadr, seed := name, eadr, seed
				t.Run(fmt.Sprintf("%s/seed=%d/eadr=%v", name, seed, eadr), func(t *testing.T) {
					mk := func() harness.Application {
						app, err := apps.New(name, apps.Config{SPT: true, PoolSize: 8 << 20, WithRecovery: true})
						if err != nil {
							t.Fatal(err)
						}
						return app
					}
					// The instrumented run: failure point tree + checkpoint
					// recording, exactly as Analyze phase 1 sets it up.
					stacks := stack.NewTable()
					tree := fpt.New(stacks)
					builder := fpt.NewBuilder(tree, fpt.GranPersistency)
					eng, sig, err := harness.Execute(mk(), w, pmem.Options{
						Capture: pmem.CapturePersistency, Stacks: stacks,
						EADR: eadr, CheckpointEvery: 512,
					}, builder)
					if err != nil || sig != nil {
						t.Fatalf("instrumented run failed: err=%v sig=%v", err, sig)
					}
					s := eng.Checkpoints()
					if s == nil || s.Count() == 0 {
						t.Fatal("instrumented run recorded no checkpoints")
					}
					leaves := tree.LeavesByICount()
					if len(leaves) == 0 {
						t.Fatal("no failure points recorded")
					}
					// Sample leaves evenly across the trace, first and last
					// included.
					stride := len(leaves)/8 + 1
					for i := 0; i < len(leaves); i += stride {
						for _, leaf := range []*fpt.Leaf{leaves[i], leaves[len(leaves)-1-i]} {
							restored, gap, err := s.ReplayTo(leaf.FirstICount, time.Time{})
							if err != nil {
								t.Fatalf("ReplayTo(%d): %v", leaf.FirstICount, err)
							}
							if gap == 0 || gap > leaf.FirstICount {
								t.Fatalf("ReplayTo(%d): nonsensical gap %d", leaf.FirstICount, gap)
							}
							fresh, fsig, err := harness.Execute(mk(), w, pmem.Options{
								EADR: eadr, CrashAt: leaf.FirstICount,
							})
							if err != nil || fsig == nil {
								t.Fatalf("from-scratch replay to %d: err=%v sig=%v", leaf.FirstICount, err, fsig)
							}
							if restored.ICount() != fresh.ICount() {
								t.Fatalf("leaf %d: restored icount %d, from-scratch %d",
									leaf.FirstICount, restored.ICount(), fresh.ICount())
							}
							if rh, fh := restored.PrefixImageHash(), fresh.PrefixImageHash(); rh != fh {
								t.Fatalf("leaf %d: PrefixImageHash %#x, from-scratch %#x", leaf.FirstICount, rh, fh)
							}
							if !bytes.Equal(restored.PrefixImage().Bytes(), fresh.PrefixImage().Bytes()) {
								t.Fatalf("leaf %d: PrefixImage bytes diverge", leaf.FirstICount)
							}
							if rh, fh := restored.MediumSnapshotHash(), fresh.MediumSnapshotHash(); rh != fh {
								t.Fatalf("leaf %d: MediumSnapshotHash %#x, from-scratch %#x", leaf.FirstICount, rh, fh)
							}
						}
					}
				})
			}
		}
	}
}

// TestCheckpointedCampaignReportsIdentical is the campaign-level
// differential: with checkpointing on — default or tight interval,
// serial or parallel — the report (text and JSON) is byte-identical to
// a non-checkpointed serial run, coverage counters agree, and every
// injection is served by a restore.
func TestCheckpointedCampaignReportsIdentical(t *testing.T) {
	for _, tc := range differentialCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base, err := core.Analyze(tc.mk(), tc.w, core.Config{KeepWarnings: true, CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			if base.Checkpoints != 0 || base.CheckpointBytes != 0 || base.CheckpointRestores != 0 {
				t.Fatalf("disabled checkpointing reported activity: %d snapshots, %d bytes, %d restores",
					base.Checkpoints, base.CheckpointBytes, base.CheckpointRestores)
			}
			want := renderReport(t, base.Report)
			variants := []struct {
				name string
				cfg  core.Config
			}{
				{"default-serial", core.Config{KeepWarnings: true}},
				{"default-parallel", core.Config{KeepWarnings: true, Workers: 4}},
				{"tight-interval", core.Config{KeepWarnings: true, CheckpointInterval: 64}},
				{"tight-parallel", core.Config{KeepWarnings: true, CheckpointInterval: 64, Workers: 8}},
			}
			for _, v := range variants {
				res, err := core.Analyze(tc.mk(), tc.w, v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderReport(t, res.Report); got != want {
					t.Errorf("%s: report diverged from the non-checkpointed serial run:\n--- want ---\n%s\n--- got ---\n%s",
						v.name, want, got)
				}
				if res.Injections != base.Injections || res.Recoveries != base.Recoveries ||
					res.SkippedFailurePoints != base.SkippedFailurePoints {
					t.Errorf("%s: coverage diverged: injections %d/%d recoveries %d/%d skipped %d/%d",
						v.name, res.Injections, base.Injections, res.Recoveries, base.Recoveries,
						res.SkippedFailurePoints, base.SkippedFailurePoints)
				}
				// A trace shorter than the interval legitimately takes no
				// snapshot (every restore starts from the genesis state),
				// but the mutation log must always have been recorded.
				if res.CheckpointBytes == 0 {
					t.Errorf("%s: no checkpoint state recorded", v.name)
				}
				if res.CheckpointRestores != res.Injections {
					t.Errorf("%s: %d of %d injections served by restore; counter mode must restore all",
						v.name, res.CheckpointRestores, res.Injections)
				}
			}
		})
	}
}

// TestStackModeIgnoresCheckpointing: stack-mode replays must re-execute
// the application (call stacks only exist on a live run), so a
// checkpoint interval is accepted but never acted on.
func TestStackModeIgnoresCheckpointing(t *testing.T) {
	res, err := core.Analyze(tc(t), smallWorkload(5), core.Config{
		StackMode: true, CheckpointInterval: 64, DisableTraceAnalysis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints != 0 || res.CheckpointRestores != 0 {
		t.Errorf("stack mode recorded checkpoint activity: %d snapshots, %d restores",
			res.Checkpoints, res.CheckpointRestores)
	}
	if res.Injections == 0 {
		t.Error("stack-mode campaign injected nothing; the comparison is vacuous")
	}
}

// tc builds the default clean btree target used across campaign tests.
func tc(t *testing.T) harness.Application {
	t.Helper()
	app, err := apps.New("btree", apps.Config{SPT: true, PoolSize: 2 << 20, WithRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	return app
}
