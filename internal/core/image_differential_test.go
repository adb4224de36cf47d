package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// TestCheckpointRestoreMatchesFromScratchAcrossRegistry is the
// image-fidelity contract at the pipeline level. Its name predates
// phase-1 images, from when a counter-mode crash state was a checkpoint
// restore. For every registry target, seed and persistence domain, the
// image phase 1 freezes for each failure point must equal, in bytes and
// hash, the graceful-crash image of a from-scratch replay crashed at the
// leaf's counter (pmem.Options.CrashAt, kept only as this reference),
// and the leaf's classing stamp must be that image's identity. The
// persistence domain is core.Config.EADR: phase 1 runs the builder next
// to the §4.2 analyzer in that domain's mode, as Analyze runs them.
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
					// The instrumented run, set up as Analyze's phase 1
					// sets up a counter-mode campaign.
					stacks := stack.NewTable()
					tree := fpt.New(stacks)
					builder := fpt.NewBuilder(tree, fpt.GranPersistency)
					builder.KeepImages = true
					analyzer := core.NewAnalyzer(core.Config{EADR: eadr})
					eng, sig, err := harness.Execute(mk(), w, pmem.Options{
						Capture: pmem.CapturePersistency, Stacks: stacks,
					}, builder, analyzer)
					if err != nil || sig != nil {
						t.Fatalf("instrumented run failed: err=%v sig=%v", err, sig)
					}
					if analyzer.Events() == 0 || uint64(analyzer.Events()) > eng.ICount() {
						t.Fatalf("analyzer saw %d events of %d", analyzer.Events(), eng.ICount())
					}
					leaves := tree.LeavesByICount()
					if len(leaves) == 0 {
						t.Fatal("no failure points recorded")
					}
					for _, leaf := range leaves {
						if leaf.Image == nil {
							t.Fatalf("leaf %d has no phase-1 image", leaf.FirstICount)
						}
						fresh, fsig, err := harness.Execute(mk(), w, pmem.Options{CrashAt: leaf.FirstICount})
						if err != nil || fsig == nil {
							t.Fatalf("from-scratch replay to %d: err=%v sig=%v", leaf.FirstICount, err, fsig)
						}
						want := fresh.PrefixImage()
						if h := want.Hash(); leaf.Image.Hash() != h || leaf.ImageHash != h || leaf.ImageSize != want.Len() {
							t.Fatalf("leaf %d: image hash %#x, stamp (%#x, %d); from-scratch (%#x, %d)",
								leaf.FirstICount, leaf.Image.Hash(), leaf.ImageHash, leaf.ImageSize, h, want.Len())
						}
						if !bytes.Equal(leaf.Image.Bytes(), want.Bytes()) {
							t.Fatalf("leaf %d: image bytes diverge from the from-scratch replay", leaf.FirstICount)
						}
					}
				})
			}
		}
	}
}

// TestCheckpointedCampaignReportsIdentical is the campaign-level
// differential of phase-1 images. Its name predates them, from when
// counter mode restored checkpoints. A counter-mode campaign judges the
// images phase 1 froze and re-executes nothing; a stack-mode campaign
// crashes a real re-execution of the target at every failure point.
// On every differential fixture, serial and parallel, the two must
// report byte for byte the same (text and JSON) with the same coverage,
// and only stack mode may spend replay events.
func TestCheckpointedCampaignReportsIdentical(t *testing.T) {
	for _, tc := range differentialCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref, err := core.Analyze(tc.mk(), tc.w, core.Config{KeepWarnings: true, StackMode: true})
			if err != nil {
				t.Fatal(err)
			}
			want := renderReport(t, ref.Report)
			for _, workers := range []int{1, 4} {
				res, err := core.Analyze(tc.mk(), tc.w, core.Config{KeepWarnings: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderReport(t, res.Report); got != want {
					t.Errorf("workers=%d: image campaign's report diverged from the replaying one:\n--- stack mode ---\n%s\n--- counter mode ---\n%s",
						workers, want, got)
				}
				if res.Injections != ref.Injections || res.Recoveries != ref.Recoveries ||
					res.SkippedFailurePoints != ref.SkippedFailurePoints {
					t.Errorf("workers=%d: coverage diverged: injections %d/%d recoveries %d/%d skipped %d/%d",
						workers, res.Injections, ref.Injections, res.Recoveries, ref.Recoveries,
						res.SkippedFailurePoints, ref.SkippedFailurePoints)
				}
				if res.EngineEvents >= ref.EngineEvents {
					t.Errorf("workers=%d: counter mode ran %d engine events, stack mode %d; counter mode must replay nothing",
						workers, res.EngineEvents, ref.EngineEvents)
				}
			}
		})
	}
}

// TestStackModeIgnoresCheckpointing: Config.CheckpointInterval is
// accepted and ignored. Stack mode keeps no phase-1 images, because its
// replays must re-execute the application (call stacks only exist on a
// live run); counter mode keeps one per failure point and replays
// nothing.
func TestStackModeIgnoresCheckpointing(t *testing.T) {
	run := func(stackMode bool) *core.Result {
		res, err := core.Analyze(tc(t), smallWorkload(5), core.Config{
			StackMode: stackMode, CheckpointInterval: 64, DisableTraceAnalysis: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Injections == 0 || res.Injections != res.Tree.Len() {
			t.Fatalf("stack=%v: %d injections over %d failure points", stackMode, res.Injections, res.Tree.Len())
		}
		for _, leaf := range res.Tree.Leaves() {
			if (leaf.Image == nil) != stackMode {
				t.Fatalf("stack=%v: failure point #%d image kept: %v", stackMode, leaf.ID, leaf.Image != nil)
			}
		}
		return res
	}
	stackRes, counterRes := run(true), run(false)
	if stackRes.EngineEvents <= counterRes.EngineEvents {
		t.Errorf("stack mode ran %d engine events, counter mode %d; stack-mode replays must re-execute",
			stackRes.EngineEvents, counterRes.EngineEvents)
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
