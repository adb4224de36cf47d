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
// Only counter mode reuses verdicts, because only counter mode judges
// the very image a stamp names: the one phase 1 froze at the leaf's
// counter. A stack-mode pass freezes images of its own, which match the
// stamps only for targets that run the same way twice, so stack mode
// judges every image its pass freezes; its class plan only counts the
// classes (Result.EquivClasses).
//
// One map holds every verdict the campaign reuses: the memo, keyed by
// stamp. It is seeded before phase 1 from a cross-run verdict-cache
// file (Config.WarmVerdicts), and after it from folded journal records.
// The class plan is built online: phase 1's builder hands it each new
// leaf in FirstICount order, which is LeavesByICount order, and the
// plan decides on the spot whether a worker judges the leaf or the merge
// goroutine resolves it. A pending leaf goes to a worker only if it is
// the first leaf of its stamp and the memo does not hold that stamp;
// the leaves of a folded journal prefix go to no worker, and their
// stamps count as seen. A judged leaf's verdict fills the memo when the
// merge loop consumes it, and the class's later members inherit it
// there. A representative whose key was seeded takes the cached verdict
// without a recovery run. Only the merge goroutine writes the memo, in
// FirstICount order, so its contents — and the exported verdict-cache
// file — are the same for any worker count. An inherited verdict
// becomes the member's own record, keyed by its FirstICount, and its
// finding is rendered with its own call stack, so the merged report
// stays byte-identical to a campaign that judges every leaf, for any
// worker count.
//
// The reuse is sound exactly when identical persisted prefix images
// imply identical recovery verdicts, which holds whenever the recovery
// procedure is a deterministic function of the image (DESIGN.md item 14
// discusses when it is not). Config.Classing off turns all of it off.
package core

import (
	"cmp"
	"fmt"
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

// classPlan is a campaign's schedule, built one leaf at a time while
// phase 1 runs (add) and read-only once it has ended. Phase 1 and the
// merge loop run on one goroutine, so the plan reads the memo without a
// lock.
type classPlan struct {
	// folded counts the leaves of the folded journal prefix still to
	// come.
	folded int
	// reps maps each class key to the ID of its representative: the
	// class member with the lowest FirstICount, i.e. the first one the
	// deterministic merge order consumes. Nil without classing.
	reps map[imageKey]int
	// atMerge marks the pending leaves resolved from the memo on the
	// merge goroutine instead of judged by a worker.
	atMerge map[int]bool
}

// add applies the class rule to the next leaf in LeavesByICount order
// and reports whether a worker judges it: a pending leaf that is the
// first of its stamp, whose stamp the memo does not hold, or, without
// reuse (a nil memo), any pending leaf.
func (p *classPlan) add(leaf *fpt.Leaf, memo map[imageKey]campaign.Judgement) bool {
	k := stampOf(leaf)
	_, seen := p.reps[k]
	if !seen && p.reps != nil {
		p.reps[k] = leaf.ID
	}
	if p.folded > 0 {
		p.folded--
		return false
	}
	if memo == nil {
		return true
	}
	if _, judged := memo[k]; judged || seen {
		p.atMerge[leaf.ID] = true
		return false
	}
	return true
}

// deferred reports whether the leaf is resolved at merge; always false
// without a memo (every leaf is judged).
func (p *classPlan) deferred(leaf *fpt.Leaf) bool {
	return p.atMerge[leaf.ID]
}

// resolve settles a deferred leaf from the memo without touching an
// engine: no execution (zero events) and no recovery run. Members still
// count as injected — an earlier leaf of their class proved the crash
// image reachable and judged it. The memo always holds a deferred
// leaf's stamp by the time the merge loop reaches it: the plan defers a
// leaf only when the memo held its stamp, or when an earlier leaf had
// it, and an earlier counter-mode leaf is always judged before the
// merge loop gets past it (a deadline or interruption that cuts its
// check stops the loop there). A miss is a broken invariant, so it
// panics.
func (m *mergeState) resolve(leaf *fpt.Leaf) replayOutcome {
	k := stampOf(leaf)
	j, ok := m.memo[k]
	if !ok {
		panic(fmt.Sprintf("core: deferred failure point #%d (instruction %d) has no verdict for its crash image", leaf.ID, leaf.FirstICount))
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
