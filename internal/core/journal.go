// Campaign journal plumbing: the deterministic merge loop publishes one
// durable record per consumed failure point; a resumed run folds the
// journaled prefix back through the same merge step without
// re-executing a single replay.
//
// Why this yields byte-identical reports: the merge loop (serial and
// parallel alike) consumes leaves strictly in FirstICount order, so the
// journal is always a prefix of the deterministic campaign over the
// tree the (deterministic) instrumented run rebuilds. Folding record i
// into leaf i of LeavesByICount applies exactly the state transitions
// the original consume did — findings, quarantines, counters, the cap
// and the stack-mode no-progress abort — and the continuation replays
// the remaining leaves exactly as an uninterrupted run would have.
package core

import (
	"fmt"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
	"mumak/internal/report"
)

// recordOutcome flattens one consumed leaf's replay outcome into a
// durable journal record.
func recordOutcome(leaf *fpt.Leaf, out replayOutcome) campaign.Record {
	rec := campaign.Record{
		LeafID:      leaf.ID,
		LeafICount:  leaf.FirstICount,
		Events:      out.events,
		Retries:     out.retries,
		Source:      out.source,
		Injected:    out.injected,
		TargetPanic: out.targetPanic,
		TargetHang:  out.targetHang,
		SkipReason:  out.skipReason,
		Judgement:   out.judgement,
	}
	if out.finding != nil {
		rec.FindingICount = out.finding.ICount
		if !out.injected {
			rec.CrashDetail = out.finding.Detail
		}
	}
	return rec
}

// outcomeFromRecord reconstructs the replay outcome a journal record
// documents, for the leaf of the rebuilt tree it matched. The finding's
// call stack is the leaf's: every replay-phase finding carries its
// leaf's stack, and leaf stacks are re-derived deterministically, so
// the reconstruction renders byte-identically.
func outcomeFromRecord(rec campaign.Record, leaf *fpt.Leaf) replayOutcome {
	out := replayOutcome{
		executed:    true,
		events:      rec.Events,
		retries:     rec.Retries,
		source:      rec.Source,
		injected:    rec.Injected,
		targetPanic: rec.TargetPanic,
		targetHang:  rec.TargetHang,
		skipReason:  rec.SkipReason,
		judgement:   rec.Judgement,
	}
	switch {
	case rec.Injected:
		out.finding = findingFor(rec.Judgement, rec.FindingICount, leaf.Stack)
	case rec.TargetPanic || rec.TargetHang:
		out.finding = &report.Finding{
			Kind:   report.TargetCrash,
			ICount: rec.FindingICount,
			Stack:  leaf.Stack,
			Detail: rec.CrashDetail,
		}
	}
	return out
}

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
		if m.consume(leaf, outcomeFromRecord(rec, leaf)) {
			return true, nil
		}
	}
	return false, nil
}

// publish durably appends one consumed leaf's record. A journal write
// failure degrades the campaign to unjournaled (recorded in
// Result.JournalError) instead of aborting it: losing resumability must
// not lose the run.
func (m *mergeState) publish(leaf *fpt.Leaf, out replayOutcome) {
	if m.journal == nil {
		return
	}
	if err := m.journal.Append(recordOutcome(leaf, out)); err != nil {
		m.res.JournalError = err.Error()
		m.journal = nil
		return
	}
	m.res.JournalAppends++
}
