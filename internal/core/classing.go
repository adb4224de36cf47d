// Phase-1 crash-image equivalence classing and the campaign's verdict
// memo.
//
// During the instrumented run the failure-point-tree builder stamps
// every new leaf with its prospective (imageHash, size) key: the content
// hash of the graceful-crash prefix image (pmem.Engine.PrefixImageHash,
// which folds the pages written since the previous stamp), the hash a
// replay crashed at that leaf would compute. The injection campaign can
// therefore group leaves into equivalence classes BEFORE any replay
// runs: leaves whose stamps match would materialise byte-identical crash
// images, and the deterministic recovery oracle necessarily returns the
// same verdict for all of them.
//
// One map holds every verdict the campaign reuses: the memo, keyed by
// stamp. It is seeded before any worker starts — from a cross-run
// verdict-cache file (Config.WarmVerdicts) and from folded journal
// records — so the class plan can mark each pending leaf up front as
// either replayed by a worker or resolved at merge. The first leaf of
// each class without a verdict replays; its judgement fills the memo
// when the merge loop consumes it, and the class's later members
// inherit it there. A representative whose key was seeded takes the
// cached verdict without replaying. Only the merge goroutine touches
// the memo, in FirstICount order, so its contents — and the exported
// verdict-cache file — are the same for any worker count. An inherited
// verdict becomes the member's own record, keyed by its FirstICount,
// and its finding is rendered with its own call stack, so the merged
// report stays byte-identical to a campaign that judges every leaf, for
// any worker count, in counter and stack mode.
//
// The reuse is sound exactly when identical persisted prefix images
// imply identical recovery verdicts, which holds whenever the recovery
// procedure is a deterministic function of the image (DESIGN.md item 14
// discusses when it is not). Config.Classing off turns all of it off.
package core

import (
	"cmp"
	"slices"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
	"mumak/internal/oracle"
)

// imageKey identifies a crash image by content: the engine's
// incrementally maintained content hash plus the image size. Distinct
// images colliding on both is vanishingly unlikely (64-bit mixed hash)
// and at worst reuses a wrong verdict for one class.
type imageKey struct {
	hash uint64
	size int
}

// stampOf returns the leaf's phase-1 image stamp.
func stampOf(leaf *fpt.Leaf) imageKey {
	return imageKey{hash: leaf.ImageHash, size: leaf.ImageSize}
}

// classPlan is the immutable schedule of a classed campaign, built once
// the memo is seeded and shared read-only across workers.
type classPlan struct {
	// reps maps each class key to the ID of its representative: the
	// class member with the lowest FirstICount, i.e. the first one the
	// deterministic merge order consumes.
	reps map[imageKey]int
	// atMerge marks the pending leaves resolved from the memo on the
	// merge goroutine instead of replayed by a worker.
	atMerge map[int]bool
}

// buildClassPlan groups the frozen tree's leaves, given in
// LeavesByICount order, by their phase-1 stamps and marks every pending
// leaf except the first of each class whose key the memo does not hold
// yet for resolution at merge.
func buildClassPlan(order, pending []*fpt.Leaf, memo map[imageKey]campaign.Judgement) *classPlan {
	p := &classPlan{reps: make(map[imageKey]int), atMerge: make(map[int]bool)}
	for _, leaf := range order {
		if _, ok := p.reps[stampOf(leaf)]; !ok {
			p.reps[stampOf(leaf)] = leaf.ID
		}
	}
	replayed := make(map[imageKey]bool)
	for _, leaf := range pending {
		k := stampOf(leaf)
		if _, judged := memo[k]; judged || replayed[k] {
			p.atMerge[leaf.ID] = true
		} else {
			replayed[k] = true
		}
	}
	return p
}

// deferred reports whether the leaf is resolved at merge; always false
// without a plan (classing off: every leaf replays).
func (p *classPlan) deferred(leaf *fpt.Leaf) bool {
	return p != nil && p.atMerge[leaf.ID]
}

// resolve settles a deferred leaf from the memo without touching an
// engine: no replay (zero events) and no recovery run. Members still
// count as injected — an earlier leaf of their class proved the crash
// image reachable and judged it. A leaf whose class has no verdict yet
// (its representative was quarantined or crashed the target) replays
// live instead, exactly as a campaign without reuse would, and its
// judgement then fills the memo for the rest of the class.
func (m *mergeState) resolve(leaf *fpt.Leaf) replayOutcome {
	k := stampOf(leaf)
	j, ok := m.memo[k]
	if !ok {
		return m.replayer(leaf)
	}
	out := replayOutcome{executed: true, Record: campaign.Record{
		LeafID: leaf.ID, LeafICount: leaf.FirstICount, Source: campaign.Inherited,
		Injected: true, Judgement: j, FindingICount: leaf.FirstICount,
	}}
	if m.plan.reps[k] == leaf.ID {
		out.Source = campaign.Cached
	}
	return out
}

// remember fills the memo from a consumed record: the first judgement
// of each class wins, and later ones — inherited or cached reads of
// that same entry — change nothing. A deadline-cut check is never
// consumed, so it never gets here.
func (m *mergeState) remember(leaf *fpt.Leaf, rec campaign.Record) {
	if m.memo == nil || !rec.Injected {
		return
	}
	k := stampOf(leaf)
	if _, ok := m.memo[k]; !ok {
		m.memo[k] = rec.Judgement
	}
}

// exportMemo flattens the memo for a verdict-cache file, sorted by key
// so that identical campaigns write identical files.
func exportMemo(memo map[imageKey]campaign.Judgement) []campaign.CacheEntry {
	out := make([]campaign.CacheEntry, 0, len(memo))
	for k, j := range memo {
		out = append(out, campaign.CacheEntry{Hash: k.hash, Size: k.size, Judgement: j})
	}
	slices.SortFunc(out, func(a, b campaign.CacheEntry) int {
		return cmp.Or(cmp.Compare(a.Hash, b.Hash), cmp.Compare(a.Size, b.Size))
	})
	return out
}

// judge renders one recovery-oracle outcome into the judgement the
// memo, journal records and verdict-cache files share.
func judge(check oracle.Outcome) campaign.Judgement {
	j := campaign.Judgement{Verdict: check.Verdict}
	if check.Consistent() {
		return j
	}
	j.Detail = check.Describe()
	if check.Verdict == oracle.Crashed && check.PanicTrace != "" {
		// Provide the recovery call trace for abrupt failures.
		j.Detail += "\nrecovery trace:\n" + truncate(check.PanicTrace, 800)
	}
	return j
}
