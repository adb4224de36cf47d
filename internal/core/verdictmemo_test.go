package core_test

// The campaign's verdict memo is its crash-image cache: it maps a crash
// image's identity (content hash, pool size) to the verdict recovery
// reached on it, fills as classes are judged, and can be exported to a
// verdict-cache file that seeds the next run. These tests hold the
// cache to the same contract as classing: whatever it serves, the
// report is byte-identical to a campaign that reuses nothing.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"mumak/internal/apps/apptest/imagedup"
	"mumak/internal/apps/btree"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/workload"
)

// roundTrip passes an exported memo through an actual verdict-cache
// file, the way the CLI persists it between runs.
func roundTrip(t *testing.T, entries []campaign.CacheEntry) []campaign.CacheEntry {
	t.Helper()
	meta := campaign.Meta{Target: "fixture", Ops: 1, Seed: 1}
	path := filepath.Join(t.TempDir(), "verdicts.bin")
	if err := campaign.SaveVerdictCache(path, meta, entries); err != nil {
		t.Fatal(err)
	}
	loaded, err := campaign.LoadVerdictCache(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// checkCachedAgainst runs one campaign served from a cold run's memo
// and holds it to the no-reuse reference: identical report, identical
// coverage, every reference recovery accounted for as judged, inherited
// or cached, and nothing judged that the memo already held.
func checkCachedAgainst(t *testing.T, label string, ref *core.Result, warm []campaign.CacheEntry,
	mk func() harness.Application, w workload.Workload, cfg core.Config) *core.Result {
	t.Helper()
	cfg.Classing = true
	cfg.WarmVerdicts = warm
	cfg.PersistVerdicts = true
	res, err := core.Analyze(mk(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(t, res.Report), renderReport(t, ref.Report); got != want {
		t.Errorf("%s: cached report differs from the reference\n--- reference ---\n%s\n--- cached ---\n%s",
			label, want, got)
	}
	if res.Injections != ref.Injections || res.SkippedFailurePoints != ref.SkippedFailurePoints ||
		len(res.Report.Quarantined) != len(ref.Report.Quarantined) {
		t.Errorf("%s: coverage diverges: injections %d/%d skipped %d/%d quarantined %d/%d",
			label, res.Injections, ref.Injections, res.SkippedFailurePoints, ref.SkippedFailurePoints,
			len(res.Report.Quarantined), len(ref.Report.Quarantined))
	}
	if res.Recoveries+res.InheritedVerdicts+res.PersistentCacheHits != ref.Recoveries {
		t.Errorf("%s: recoveries %d + inherited %d + cached %d != reference recoveries %d",
			label, res.Recoveries, res.InheritedVerdicts, res.PersistentCacheHits, ref.Recoveries)
	}
	if len(warm) > 0 && res.Recoveries != 0 {
		t.Errorf("%s: judged %d crash images although the memo held every judged class", label, res.Recoveries)
	}
	return res
}

// TestImageCacheDifferential is the cache's correctness contract: for
// every fixture, campaigns served from a cold run's memo — round-tripped
// through a verdict-cache file, serial and parallel — report byte for
// byte what a campaign without reuse reports, and re-export the very
// memo they were seeded with.
func TestImageCacheDifferential(t *testing.T) {
	for _, tc := range differentialCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ref, err := core.Analyze(tc.mk(), tc.w, core.Config{KeepWarnings: true})
			if err != nil {
				t.Fatal(err)
			}
			cold := checkCachedAgainst(t, "cold", ref, nil, tc.mk, tc.w, core.Config{KeepWarnings: true})
			if len(cold.VerdictCache) == 0 {
				t.Fatal("cold run memoised no verdicts; the cached runs are vacuous")
			}
			warm := roundTrip(t, cold.VerdictCache)
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("warm workers=%d", workers)
				res := checkCachedAgainst(t, label, ref, warm, tc.mk, tc.w,
					core.Config{KeepWarnings: true, Workers: workers})
				if res.PersistentCacheHits == 0 {
					t.Errorf("%s: no representative took a cached verdict", label)
				}
				if !reflect.DeepEqual(res.VerdictCache, cold.VerdictCache) {
					t.Errorf("%s: re-exported memo (%d entries) differs from the one it was seeded with (%d)",
						label, len(res.VerdictCache), len(cold.VerdictCache))
				}
			}
		})
	}
}

// TestImageCacheDedupsScanPhase pins down the win on the fixture built
// for it: the imagedup scan phase re-persists durable data, so every
// scan leaf (and the deepest fill leaf) shares one crash image. Each
// distinct image is judged once and memoised once, and at least
// DefaultScanRounds failure points take a memoised verdict.
func TestImageCacheDedupsScanPhase(t *testing.T) {
	app, _ := imagedup.New("imagedup")
	res, err := core.Analyze(app, smallWorkload(3),
		core.Config{DisableTraceAnalysis: true, Classing: true, PersistVerdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections == 0 {
		t.Fatal("fixture injected nothing; dedup check is vacuous")
	}
	entries := len(res.VerdictCache)
	if entries == 0 || entries != res.EquivClasses || entries != res.Recoveries {
		t.Errorf("%d memo entries, %d classes, %d recoveries; want one judged entry per distinct image",
			entries, res.EquivClasses, res.Recoveries)
	}
	if reused := res.Injections - entries; reused < imagedup.DefaultScanRounds {
		t.Errorf("%d failure points reused a memoised verdict, want >= %d (scan-phase leaves share one image)",
			reused, imagedup.DefaultScanRounds)
	}
}

// TestImageCacheRecurringImageDistinctICounts checks that a memoised
// verdict still yields one finding per failure point: imagedup-broken's
// scan leaves crash at distinct instruction counters but share a single
// Unrecoverable verdict, and every finding keeps its own ICount.
func TestImageCacheRecurringImageDistinctICounts(t *testing.T) {
	app, _ := imagedup.New("imagedup-broken")
	res, err := core.Analyze(app, smallWorkload(3), core.Config{DisableTraceAnalysis: true, Classing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InheritedVerdicts == 0 {
		t.Fatal("no inherited verdicts; recurring-image check is vacuous")
	}
	bugs := res.Report.Bugs()
	if len(bugs) != res.Injections {
		t.Fatalf("broken recovery produced %d findings for %d injections", len(bugs), res.Injections)
	}
	icounts := make(map[uint64]bool)
	for _, f := range bugs {
		icounts[f.ICount] = true
	}
	if len(icounts) != len(bugs) {
		t.Errorf("findings share instruction counters: %d distinct of %d findings", len(icounts), len(bugs))
	}
}

// TestImageCacheDisabled: without classing there is no cache at all. A
// verdict-cache file is not read — even one whose every verdict is
// doctored — nothing is memoised or exported, and every failure point
// is replayed and judged on its own image.
func TestImageCacheDisabled(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	ref, err := core.Analyze(mk(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Analyze(mk(), w, core.Config{Classing: true, PersistVerdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	doctored := make([]campaign.CacheEntry, len(cold.VerdictCache))
	for i, e := range cold.VerdictCache {
		e.Judgement = campaign.Judgement{Verdict: oracle.Consistent}
		doctored[i] = e
	}
	if len(ref.Report.Bugs()) == 0 {
		t.Fatal("fixture reports no bugs; doctored verdicts would change nothing")
	}
	// Served the doctored file, a classed campaign reports what it says:
	// the file is what changes the outcome, not the fixture.
	trusted, err := core.Analyze(mk(), w, core.Config{Classing: true, WarmVerdicts: doctored})
	if err != nil {
		t.Fatal(err)
	}
	if trusted.Report.Format(true) == ref.Report.Format(true) {
		t.Fatal("doctored verdicts did not change a classed report; the disabled check is vacuous")
	}

	res, err := core.Analyze(mk(), w, core.Config{WarmVerdicts: doctored, PersistVerdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(t, res.Report), renderReport(t, ref.Report); got != want {
		t.Errorf("unclassed run read the verdict-cache file\n--- reference ---\n%s\n--- unclassed ---\n%s", want, got)
	}
	if res.EquivClasses != 0 || res.InheritedVerdicts != 0 || res.PersistentCacheHits != 0 ||
		res.Recoveries != res.Injections {
		t.Errorf("unclassed run reused verdicts: %d classes, %d inherited, %d cached, %d recoveries for %d injections",
			res.EquivClasses, res.InheritedVerdicts, res.PersistentCacheHits, res.Recoveries, res.Injections)
	}
	if res.VerdictCache != nil {
		t.Errorf("unclassed run exported %d memo entries", len(res.VerdictCache))
	}
}

// TestImageCacheCapacityConfig: ImageCacheSize is a documented no-op,
// kept for callers that still set it. No value changes what the
// campaign reuses or reports.
func TestImageCacheCapacityConfig(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	var first *core.Result
	for _, size := range []int{0, -1, 1, core.DefaultImageCacheSize} {
		res, err := core.Analyze(mk(), w, core.Config{Classing: true, PersistVerdicts: true, ImageCacheSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if got, want := renderReport(t, res.Report), renderReport(t, first.Report); got != want {
			t.Errorf("ImageCacheSize=%d changed the report\n--- size 0 ---\n%s\n--- size %d ---\n%s", size, want, size, got)
		}
		if res.Recoveries != first.Recoveries || res.InheritedVerdicts != first.InheritedVerdicts ||
			!reflect.DeepEqual(res.VerdictCache, first.VerdictCache) {
			t.Errorf("ImageCacheSize=%d changed reuse: %d recoveries, %d inherited, %d entries; size 0: %d, %d, %d",
				size, res.Recoveries, res.InheritedVerdicts, len(res.VerdictCache),
				first.Recoveries, first.InheritedVerdicts, len(first.VerdictCache))
		}
	}
}

// TestImageCacheEADRDifferential repeats the cached differential check
// under the extended persistence domain, whose instrumented run takes
// the eADR snapshot paths (and therefore the eADR rolling-hash paths
// the memo's keys come from).
func TestImageCacheEADRDifferential(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(7)
	base := core.Config{KeepWarnings: true, EADR: true}
	ref, err := core.Analyze(mk(), w, base)
	if err != nil {
		t.Fatal(err)
	}
	cold := checkCachedAgainst(t, "eADR cold", ref, nil, mk, w, base)
	warm := roundTrip(t, cold.VerdictCache)
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		checkCachedAgainst(t, fmt.Sprintf("eADR warm workers=%d", workers), ref, warm, mk, w, cfg)
	}
}

// TestImageCacheStackModeDifferential covers the memo on the stack-mode
// campaign: imagedup-broken's recurring Unrecoverable image is judged
// once and served to every other failure point that crashes into it,
// and a warm stack-mode run judges nothing.
func TestImageCacheStackModeDifferential(t *testing.T) {
	mk := func() harness.Application {
		app, _ := imagedup.New("imagedup-broken")
		return app
	}
	w := smallWorkload(5)
	base := core.Config{StackMode: true, DisableTraceAnalysis: true}
	ref, err := core.Analyze(mk(), w, base)
	if err != nil {
		t.Fatal(err)
	}
	cold := checkCachedAgainst(t, "stack-mode cold", ref, nil, mk, w, base)
	if cold.InheritedVerdicts == 0 {
		t.Error("stack-mode campaign on imagedup-broken served no memoised verdict")
	}
	checkCachedAgainst(t, "stack-mode warm", ref, roundTrip(t, cold.VerdictCache), mk, w, base)
}
