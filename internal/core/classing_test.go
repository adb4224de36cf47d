package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest/imagedup"
	"mumak/internal/apps/apptest/misbehave"
	"mumak/internal/apps/btree"
	"mumak/internal/apps/levelhash"
	"mumak/internal/bugs"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/report"
	"mumak/internal/workload"
)

// renderReport captures everything a consumer of a report can observe:
// the human-readable rendering (with warnings) and the JSON emission.
func renderReport(t *testing.T, rep *report.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	return rep.Format(true) + "\n--- json ---\n" + buf.String()
}

// differentialCases are the differential fixtures: targets with real
// findings, a finding-free high-duplication target, a target whose
// recovery rejects everything, and one whose recovery crashes (Crashed
// verdicts with a recovery trace).
func differentialCases() []struct {
	name string
	mk   func() harness.Application
	w    workload.Workload
} {
	newDup := func(name string) func() harness.Application {
		return func() harness.Application {
			app, ok := imagedup.New(name)
			if !ok {
				panic("unknown imagedup fixture " + name)
			}
			return app
		}
	}
	return []struct {
		name string
		mk   func() harness.Application
		w    workload.Workload
	}{
		{
			name: "btree-bug",
			mk: func() harness.Application {
				return btree.New(cfgSPT(btree.BugCountOutsideTx))
			},
			w: smallWorkload(21),
		},
		{
			name: "levelhash-bug",
			mk: func() harness.Application {
				return levelhash.New(apps.Config{
					PoolSize: 2 << 20, WithRecovery: true,
					Bugs: bugs.Enable("levelhash/c01-top-slot-count-order"),
				})
			},
			w: workload.Generate(workload.Config{N: 300, Seed: 8, Keyspace: 150, PutFrac: 3, GetFrac: 1, DeleteFrac: 1}),
		},
		{name: "imagedup", mk: newDup("imagedup"), w: smallWorkload(3)},
		{name: "imagedup-broken", mk: newDup("imagedup-broken"), w: smallWorkload(3)},
		{
			name: "recovery-panic",
			mk:   func() harness.Application { return misbehave.NewMode(misbehave.RecoveryPanic) },
			w:    smallWorkload(3),
		},
	}
}

// classingCases trims the differential fixtures for the stack-mode half
// of the classing matrix: stack mode re-executes the whole workload per
// live replay, so the slowest fixture is dropped there to keep the
// suite bounded. Counter mode runs the full set.
func classingCases(stackMode bool) []struct {
	name string
	mk   func() harness.Application
	w    workload.Workload
} {
	cases := differentialCases()
	if !stackMode {
		return cases
	}
	trimmed := cases[:0]
	for _, tc := range cases {
		if tc.name != "levelhash-bug" {
			trimmed = append(trimmed, tc)
		}
	}
	return trimmed
}

// TestClassingDifferential is the verdict-reuse correctness contract:
// for every fixture, mode and worker count, a classed campaign's report
// — text and JSON — is byte-identical to the reference campaign without
// any reuse (Classing off: every failure point judged on its own
// image), and the injection coverage is unchanged. In counter mode the
// recovery runs collapse to one per crash-image equivalence class
// (members inherit, they are never re-judged); stack mode reuses no
// verdict, so it runs one per failure point.
func TestClassingDifferential(t *testing.T) {
	for _, stackMode := range []bool{false, true} {
		mode := "counter"
		if stackMode {
			mode = "stack"
		}
		for _, tc := range classingCases(stackMode) {
			tc, stackMode := tc, stackMode
			t.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(t *testing.T) {
				t.Parallel()
				base := core.Config{KeepWarnings: true, StackMode: stackMode}
				ref, err := core.Analyze(tc.mk(), tc.w, base)
				if err != nil {
					t.Fatal(err)
				}
				if ref.EquivClasses != 0 || ref.InheritedVerdicts != 0 || ref.PersistentCacheHits != 0 ||
					ref.Recoveries != ref.Injections {
					t.Fatalf("reference run reused verdicts: %d classes, %d inherited, %d cached, %d recoveries for %d injections",
						ref.EquivClasses, ref.InheritedVerdicts, ref.PersistentCacheHits, ref.Recoveries, ref.Injections)
				}
				want := renderReport(t, ref.Report)
				for _, workers := range []int{1, 4} {
					cfg := base
					cfg.Classing = true
					cfg.Workers = workers
					res, err := core.Analyze(tc.mk(), tc.w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("workers=%d", workers)
					if got := renderReport(t, res.Report); got != want {
						t.Errorf("%s: classed report differs from the reference\n--- reference ---\n%s\n--- classed ---\n%s",
							label, want, got)
					}
					if res.Injections != ref.Injections || res.SkippedFailurePoints != ref.SkippedFailurePoints ||
						len(res.Report.Quarantined) != len(ref.Report.Quarantined) {
						t.Errorf("%s: coverage diverges: injections %d/%d skipped %d/%d quarantined %d/%d",
							label, res.Injections, ref.Injections,
							res.SkippedFailurePoints, ref.SkippedFailurePoints,
							len(res.Report.Quarantined), len(ref.Report.Quarantined))
					}
					if res.EquivClasses == 0 {
						t.Errorf("%s: classing enabled but no classes were built", label)
					}
					// Every inherited member recovered on its own in the
					// reference run; nothing else changes.
					if res.Recoveries+res.InheritedVerdicts != ref.Recoveries {
						t.Errorf("%s: recoveries %d + inherited %d != reference recoveries %d",
							label, res.Recoveries, res.InheritedVerdicts, ref.Recoveries)
					}
					switch {
					case stackMode && res.Recoveries != res.Injections:
						t.Errorf("%s: %d recoveries for %d injections; stack mode judges every failure point",
							label, res.Recoveries, res.Injections)
					case !stackMode && res.SkippedFailurePoints == 0 && res.TargetPanics == 0 &&
						res.Recoveries != res.EquivClasses:
						t.Errorf("%s: %d recoveries for %d classes; want exactly one per class",
							label, res.Recoveries, res.EquivClasses)
					}
					if res.EngineEvents > ref.EngineEvents {
						t.Errorf("%s: classed campaign replayed more events (%d) than the reference (%d)",
							label, res.EngineEvents, ref.EngineEvents)
					}
				}
			})
		}
	}
}

// TestStackModeReusesNoVerdict: a stack-mode campaign judges the image
// its own pass freezes for every failure point, so with classing on it
// inherits no verdict and takes none from a verdict-cache file, even one
// written by the counter-mode campaign of the same input, and exports
// none. Its class plan still counts the counter-mode campaign's
// classes, and its report is the unclassed campaign's.
func TestStackModeReusesNoVerdict(t *testing.T) {
	for _, tc := range differentialCases() {
		switch tc.name {
		case "btree-bug", "imagedup", "imagedup-broken":
		default:
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			counter, err := core.Analyze(tc.mk(), tc.w, core.Config{Classing: true, PersistVerdicts: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(counter.VerdictCache) == 0 {
				t.Fatal("the counter-mode campaign memoised no verdict; the cache check is vacuous")
			}
			base := core.Config{KeepWarnings: true, StackMode: true}
			ref, err := core.Analyze(tc.mk(), tc.w, base)
			if err != nil {
				t.Fatal(err)
			}
			want := renderReport(t, ref.Report)
			for _, workers := range []int{1, 4} {
				cfg := base
				cfg.Classing, cfg.Workers = true, workers
				cfg.WarmVerdicts, cfg.PersistVerdicts = counter.VerdictCache, true
				res, err := core.Analyze(tc.mk(), tc.w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				if res.InheritedVerdicts != 0 || res.PersistentCacheHits != 0 || res.Recoveries != res.Injections ||
					res.Injections == 0 {
					t.Errorf("%s: %d inherited, %d cached, %d recoveries for %d injections; want every failure point judged",
						label, res.InheritedVerdicts, res.PersistentCacheHits, res.Recoveries, res.Injections)
				}
				if res.EquivClasses != counter.EquivClasses {
					t.Errorf("%s: %d classes, counter mode %d", label, res.EquivClasses, counter.EquivClasses)
				}
				if len(res.VerdictCache) != 0 {
					t.Errorf("%s: exported %d verdicts", label, len(res.VerdictCache))
				}
				if got := renderReport(t, res.Report); got != want {
					t.Errorf("%s: classed stack-mode report differs from the unclassed one\n--- unclassed ---\n%s\n--- classed ---\n%s",
						label, want, got)
				}
			}
		})
	}
}

// TestClassingDedupsScanPhase pins the perf win on the fixture built
// for duplication: imagedup's scan leaves (and the deepest fill leaf)
// share one crash image, so the classed campaign must inherit all of
// them instead of replaying them.
func TestClassingDedupsScanPhase(t *testing.T) {
	mkDup := func(name string) harness.Application {
		app, ok := imagedup.New(name)
		if !ok {
			t.Fatalf("unknown imagedup fixture %s", name)
		}
		return app
	}
	res, err := core.Analyze(mkDup("imagedup"), smallWorkload(3),
		core.Config{DisableTraceAnalysis: true, Classing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InheritedVerdicts < imagedup.DefaultScanRounds {
		t.Fatalf("inherited %d verdicts, want >= %d (scan-phase leaves share one image)",
			res.InheritedVerdicts, imagedup.DefaultScanRounds)
	}
	if res.EquivClasses >= res.Injections {
		t.Fatalf("classing was vacuous: %d classes for %d injections",
			res.EquivClasses, res.Injections)
	}
	ref, err := core.Analyze(mkDup("imagedup"), smallWorkload(3),
		core.Config{DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries+res.InheritedVerdicts != ref.Recoveries || res.Recoveries >= ref.Recoveries {
		t.Errorf("classing judged %d images and inherited %d verdicts; without it %d images were judged",
			res.Recoveries, res.InheritedVerdicts, ref.Recoveries)
	}
}

// TestClassingEADRDifferential repeats the differential check under the
// extended persistence domain, whose instrumented run takes the eADR
// snapshot paths (and therefore the eADR prefix-hash paths).
func TestClassingEADRDifferential(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(7)
	ref, err := core.Analyze(mk(), w, core.Config{KeepWarnings: true, EADR: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		classed, err := core.Analyze(mk(), w, core.Config{KeepWarnings: true, EADR: true, Classing: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderReport(t, classed.Report), renderReport(t, ref.Report); got != want {
			t.Errorf("workers=%d: eADR classed report differs from the reference\n--- reference ---\n%s\n--- classed ---\n%s",
				workers, want, got)
		}
		if classed.Recoveries+classed.InheritedVerdicts != ref.Recoveries {
			t.Errorf("workers=%d: eADR recoveries %d + inherited %d != reference %d",
				workers, classed.Recoveries, classed.InheritedVerdicts, ref.Recoveries)
		}
	}
}

// TestPersistentVerdictCacheWarmMatchesCold is the cross-run contract:
// a campaign warmed from a previous identical campaign's persisted
// verdicts — round-tripped through the actual cache file — produces a
// byte-identical report while judging no class the file already held.
// Without classing the file is not read at all.
func TestPersistentVerdictCacheWarmMatchesCold(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	cold, err := core.Analyze(mk(), w, core.Config{Classing: true, PersistVerdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.VerdictCache) != cold.EquivClasses {
		t.Fatalf("PersistVerdicts exported %d entries for %d classes", len(cold.VerdictCache), cold.EquivClasses)
	}
	if cold.PersistentCacheHits != 0 {
		t.Fatalf("cold run claims %d persistent hits", cold.PersistentCacheHits)
	}
	want := renderReport(t, cold.Report)

	meta := campaign.Meta{Target: "fixture", Ops: 21, Seed: 21}
	path := filepath.Join(t.TempDir(), "verdicts.bin")
	if err := campaign.SaveVerdictCache(path, meta, cold.VerdictCache); err != nil {
		t.Fatal(err)
	}
	warmEntries, err := campaign.LoadVerdictCache(path, meta)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		warm, err := core.Analyze(mk(), w, core.Config{
			Classing: true, Workers: workers, WarmVerdicts: warmEntries, PersistVerdicts: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers=%d", workers)
		if got := renderReport(t, warm.Report); got != want {
			t.Errorf("%s: warm report differs from cold\n--- cold ---\n%s\n--- warm ---\n%s", label, want, got)
		}
		if warm.Recoveries != 0 {
			t.Errorf("%s: warm run judged %d images the file already held", label, warm.Recoveries)
		}
		if warm.PersistentCacheHits != warm.EquivClasses ||
			warm.PersistentCacheHits+warm.InheritedVerdicts != warm.Injections {
			t.Errorf("%s: %d cached + %d inherited verdicts over %d classes and %d injections",
				label, warm.PersistentCacheHits, warm.InheritedVerdicts, warm.EquivClasses, warm.Injections)
		}
	}

	plain, err := core.Analyze(mk(), w, core.Config{WarmVerdicts: warmEntries})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, plain.Report); got != want {
		t.Errorf("unclassed warm report differs from cold\n--- cold ---\n%s\n--- unclassed ---\n%s", want, got)
	}
	if plain.PersistentCacheHits != 0 || plain.Recoveries != plain.Injections {
		t.Errorf("unclassed run reused the file: %d cached, %d recoveries for %d injections",
			plain.PersistentCacheHits, plain.Recoveries, plain.Injections)
	}
}

// TestVerdictCacheFileIsDeterministic: the saved verdict-cache file
// depends only on the campaign, not on worker scheduling — cold
// campaigns with one and four workers write byte-identical files.
func TestVerdictCacheFileIsDeterministic(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	meta := campaign.Meta{Target: "fixture", Ops: 21, Seed: 21}
	var files [][]byte
	for _, workers := range []int{1, 4} {
		res, err := core.Analyze(mk(), w, core.Config{Classing: true, Workers: workers, PersistVerdicts: true})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "verdicts.bin")
		if err := campaign.SaveVerdictCache(path, meta, res.VerdictCache); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("verdict-cache files differ between 1 and 4 workers (%d vs %d bytes)", len(files[0]), len(files[1]))
	}
}

// TestClassingResumeByteIdentical crosses classing with crash-safe
// resume: a classed journaled campaign killed mid-run must resume to
// the uninterrupted classed report, with inherited verdicts flowing
// across the resume boundary (the folded journal records re-seed the
// verdict memo).
func TestClassingResumeByteIdentical(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	cfg := journaledConfig(false, 1)
	cfg.Classing = true
	ref, err := core.Analyze(mk(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := t.TempDir()
	analyzeJournaled(t, mk, w, cfg, full)
	logLen := fileSize(t, filepath.Join(full, campaign.JournalFile))
	for _, cut := range []int64{1, logLen / 3, logLen / 2, logLen - 3} {
		dir := copyTruncated(t, full, cut)
		res := analyzeJournaled(t, mk, w, cfg, dir)
		label := fmt.Sprintf("cut=%d", cut)
		if got, want := renderReport(t, res.Report), renderReport(t, ref.Report); got != want {
			t.Errorf("%s: resumed classed report differs\n--- reference ---\n%s\n--- resumed ---\n%s",
				label, want, got)
		}
		assertResumeMatches(t, label, ref, res)
		if res.InheritedVerdicts != ref.InheritedVerdicts {
			t.Errorf("%s: %d inherited verdicts, uninterrupted run had %d", label, res.InheritedVerdicts, ref.InheritedVerdicts)
		}
	}
	// A classed journal folds into an unclassed resume (and vice versa):
	// the records carry complete outcomes, so classing is not part of
	// the campaign identity.
	dir := copyTruncated(t, full, logLen/2)
	plain := journaledConfig(false, 1)
	res := analyzeJournaled(t, mk, w, plain, dir)
	if got, want := res.Report.Format(true), ref.Report.Format(true); got != want {
		t.Errorf("unclassed resume of a classed journal diverges\n--- reference ---\n%s\n--- resumed ---\n%s", want, got)
	}
}
