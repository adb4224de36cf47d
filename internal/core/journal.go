// Campaign journal plumbing: a consumed leaf is its journal record. The
// deterministic merge loop publishes each record it consumes, durably;
// a resumed run folds the journaled prefix back through the same
// consume step without re-executing a single replay.
//
// Why this yields byte-identical reports: the merge loop consumes
// leaves strictly in FirstICount order, whatever the worker count, so
// the journal is always a prefix of the deterministic campaign over the
// tree the (deterministic) instrumented run rebuilds. Folding record i
// into leaf i of LeavesByICount applies exactly the state transitions
// the original consume did — findings (rendered from the record by the
// same leafFinding), quarantines, counters and the stack-mode
// no-progress abort — and the continuation replays the remaining leaves
// exactly as an uninterrupted run would have.
package core

import (
	"fmt"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
)

// fold replays the journaled prefix through the merge state without
// executing anything: record i is matched to leaf i of order, the
// rebuilt tree's LeavesByICount (the first-occurrence counter is the
// cross-process leaf key), and consumed exactly as the original merge
// did. It reports whether the folded prefix already ended the campaign
// (stack-mode no-progress abort), and errors when the journal does not
// match this run's tree — resuming under a different target, workload
// or injection mode would silently corrupt the report.
func (m *mergeState) fold(st *campaign.State, ordered []*fpt.Leaf) (aborted bool, err error) {
	if len(st.Records) > len(ordered) {
		return false, fmt.Errorf("campaign journal holds %d verdicts but this run found only %d failure points (target, workload or flags changed since the journal was recorded)",
			len(st.Records), len(ordered))
	}
	m.folding = true
	defer func() { m.folding = false }()
	for i, rec := range st.Records {
		leaf := ordered[i]
		if leaf.FirstICount != rec.LeafICount {
			return false, fmt.Errorf("campaign journal diverges at verdict %d: the journal's failure point first occurs at instruction %d, this run's at %d (target, workload or flags changed since the journal was recorded)",
				i, rec.LeafICount, leaf.FirstICount)
		}
		m.res.ResumedFailurePoints++
		if m.consume(leaf, rec) {
			return true, nil
		}
	}
	return false, nil
}

// publish durably appends one consumed leaf's record. A journal write
// failure degrades the campaign to unjournaled (recorded in
// Result.JournalError) instead of aborting it: losing resumability must
// not lose the run.
func (m *mergeState) publish(rec campaign.Record) {
	if m.journal == nil {
		return
	}
	if err := m.journal.Append(rec); err != nil {
		m.res.JournalError = err.Error()
		m.journal = nil
		return
	}
	m.res.JournalAppends++
}
