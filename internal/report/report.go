// Package report defines bug reports and the ergonomics the paper
// highlights in Table 3: complete bug paths, unique-bug filtering and
// succinct rendering.
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mumak/internal/stack"
	"mumak/internal/taxonomy"
)

// Kind classifies a finding.
type Kind uint8

// Finding kinds. The first group are definite bugs; the second are the
// warnings of §4.2, reported to guide the developer but never counted as
// positives.
const (
	// CrashConsistency: an injected crash produced a state the
	// recovery procedure rejected (fault-injection phase).
	CrashConsistency Kind = iota
	// TargetCrash: the target's own execution failed abruptly outside
	// fault injection — a foreign panic, or a run the hang watchdog
	// had to terminate (possible non-termination / runaway PM event
	// allocation). Captured by the campaign sandbox; the detail
	// distinguishes the two.
	TargetCrash
	// RecoveryHang: the recovery procedure did not terminate within
	// the watchdog bounds — non-terminating recovery, a first-class
	// liveness bug category in PM bug studies.
	RecoveryHang
	// Durability: a store that was never explicitly persisted although
	// its address is flushed elsewhere in the execution.
	Durability
	// DirtyOverwrite: an address overwritten while a previous store to
	// it was still unpersisted.
	DirtyOverwrite
	// RedundantFlush: a flush of a line with no new stores since its
	// last write-back.
	RedundantFlush
	// RedundantFence: a fence with no flush or non-temporal store
	// since the previous fence.
	RedundantFence

	// WarnTransientData: a store whose address is never flushed during
	// the whole execution — PM possibly used for transient data.
	WarnTransientData
	// WarnMultiStoreFlush: a flush covering several stores — a single
	// flush suffices on this platform, but the layout may differ
	// elsewhere.
	WarnMultiStoreFlush
	// WarnFenceOrdering: a fence acting on more than one write-back,
	// whose non-program-order persist interleavings were not explored.
	WarnFenceOrdering
	// WarnRedundantNTFlush: a flush of a line whose only writes were
	// non-temporal — NT stores bypass the cache, so the flush has
	// nothing cached to write back. Advisory rather than a bug because
	// persisting a range over freshly NT-zeroed blocks is a common and
	// harmless library idiom (e.g. pmem_persist after pmem_memset).
	WarnRedundantNTFlush
)

var kindNames = [...]string{
	CrashConsistency:     "crash-consistency bug",
	TargetCrash:          "target crash outside injection",
	RecoveryHang:         "recovery hang",
	Durability:           "durability bug",
	DirtyOverwrite:       "dirty overwrite",
	RedundantFlush:       "redundant flush",
	RedundantFence:       "redundant fence",
	WarnTransientData:    "warning: possible transient data in PM",
	WarnMultiStoreFlush:  "warning: flush covers multiple stores",
	WarnFenceOrdering:    "warning: unexplored persist orderings behind fence",
	WarnRedundantNTFlush: "warning: flush of a line written only non-temporally",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "finding?"
}

// IsWarning reports whether the kind is advisory only.
func (k Kind) IsWarning() bool { return k >= WarnTransientData }

// Class maps the finding kind onto the §2 taxonomy.
func (k Kind) Class() taxonomy.Class {
	switch k {
	case TargetCrash, RecoveryHang:
		return taxonomy.Liveness
	case Durability, DirtyOverwrite:
		return taxonomy.Durability
	case RedundantFlush, WarnMultiStoreFlush, WarnRedundantNTFlush:
		return taxonomy.RedundantFlush
	case RedundantFence:
		return taxonomy.RedundantFence
	case WarnTransientData:
		return taxonomy.TransientData
	case WarnFenceOrdering:
		return taxonomy.Ordering
	default:
		// Fault injection exposes atomicity and ordering violations
		// without distinguishing them.
		return taxonomy.Atomicity
	}
}

// Finding is one detected bug or warning.
type Finding struct {
	// Kind classifies the finding.
	Kind Kind
	// ICount is the instruction at which the pattern fired or the
	// fault was injected.
	ICount uint64
	// Addr is the affected address where applicable.
	Addr uint64
	// Stack is the code path leading to the finding (stack.NoID when
	// unresolved).
	Stack stack.ID
	// Detail describes the finding (for crash-consistency bugs, the
	// recovery outcome).
	Detail string
}

// QuarantinedLeaf records a failure point whose replays kept failing
// after the campaign's bounded retries: the leaf was consumed without
// an injection and set aside, so one bad leaf can never sink a long
// campaign — but the coverage gap is reported, never silently dropped.
type QuarantinedLeaf struct {
	// LeafID and ICount identify the failure point (tree leaf ID and
	// first-occurrence instruction counter).
	LeafID int
	ICount uint64
	// Stack is the failure point's code path (stack.NoID when
	// unresolved).
	Stack stack.ID
	// Reason is the final skip reason after the last retry.
	Reason string
	// Retries is the number of extra replay attempts spent before
	// giving up.
	Retries int
}

// Report is the output of one analysis. Add and Quarantine are safe to
// call from concurrent goroutines; the read accessors
// (Unique, Bugs, Format, ...) expect the findings to be quiescent, as
// they are once a campaign has been merged.
type Report struct {
	// Target and Tool identify the run.
	Target string
	Tool   string
	// Findings holds every raw finding before unique-filtering.
	Findings []Finding
	// Quarantined lists failure points set aside after exhausted
	// replay retries, in campaign merge order.
	Quarantined []QuarantinedLeaf
	// Interrupted marks a partial report: the campaign was gracefully
	// interrupted (SIGINT/SIGTERM) before consuming every failure
	// point. BudgetExhausted marks a partial report cut by the
	// analysis wall-clock budget instead.
	Interrupted     bool
	BudgetExhausted bool
	// Stacks resolves finding stacks for rendering.
	Stacks *stack.Table

	mu sync.Mutex
}

// Add appends a finding.
func (r *Report) Add(f Finding) {
	r.mu.Lock()
	r.Findings = append(r.Findings, f)
	r.mu.Unlock()
}

// Quarantine appends a quarantined failure point.
func (r *Report) Quarantine(q QuarantinedLeaf) {
	r.mu.Lock()
	r.Quarantined = append(r.Quarantined, q)
	r.mu.Unlock()
}

// Unique returns the findings filtered to one per unique bug: same kind
// and same code path (or same address when no stack was captured)
// collapse together, exactly the duplicate filtering of Table 3.
func (r *Report) Unique() []Finding {
	type key struct {
		kind  Kind
		stack stack.ID
		addr  uint64
	}
	seen := map[key]bool{}
	var out []Finding
	for _, f := range r.Findings {
		k := key{kind: f.Kind, stack: f.Stack}
		if f.Stack == stack.NoID {
			k.addr = f.Addr
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].ICount < out[j].ICount
	})
	return out
}

// Bugs returns the unique definite bugs (no warnings).
func (r *Report) Bugs() []Finding {
	var out []Finding
	for _, f := range r.Unique() {
		if !f.Kind.IsWarning() {
			out = append(out, f)
		}
	}
	return out
}

// Warnings returns the unique warnings.
func (r *Report) Warnings() []Finding {
	var out []Finding
	for _, f := range r.Unique() {
		if f.Kind.IsWarning() {
			out = append(out, f)
		}
	}
	return out
}

// CountByKind tallies unique findings per kind.
func (r *Report) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, f := range r.Unique() {
		out[f.Kind]++
	}
	return out
}

// Format renders the report succinctly: one block per unique finding
// with its complete code path.
func (r *Report) Format(withWarnings bool) string {
	var sb strings.Builder
	bugs := r.Bugs()
	fmt.Fprintf(&sb, "%s analysis of %s: %d unique bug(s)", r.Tool, r.Target, len(bugs))
	warns := r.Warnings()
	if withWarnings {
		fmt.Fprintf(&sb, ", %d warning(s)", len(warns))
	}
	sb.WriteByte('\n')
	render := func(i int, f Finding) {
		fmt.Fprintf(&sb, "\n[%d] %s", i+1, f.Kind)
		if f.Addr != 0 {
			fmt.Fprintf(&sb, " at address 0x%x", f.Addr)
		}
		fmt.Fprintf(&sb, " (instruction %d)\n", f.ICount)
		if f.Detail != "" {
			fmt.Fprintf(&sb, "    %s\n", f.Detail)
		}
		fmt.Fprintf(&sb, "    suggested fix: %s\n", f.Suggest())
		if r.Stacks != nil && f.Stack != stack.NoID {
			fmt.Fprintf(&sb, "%s\n", r.Stacks.Format(f.Stack))
		}
	}
	for i, f := range bugs {
		render(i, f)
	}
	if withWarnings {
		for i, f := range warns {
			render(len(bugs)+i, f)
		}
	}
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(&sb, "\nquarantined failure points: %d (replays kept failing after bounded retries; coverage is incomplete)\n",
			len(r.Quarantined))
		for _, q := range r.Quarantined {
			fmt.Fprintf(&sb, "  - failure point #%d (instruction %d), %d retries: %s\n",
				q.LeafID, q.ICount, q.Retries, q.Reason)
			if r.Stacks != nil && q.Stack != stack.NoID {
				fmt.Fprintf(&sb, "%s\n", r.Stacks.Format(q.Stack))
			}
		}
	}
	if r.BudgetExhausted {
		sb.WriteString("\nanalysis budget exhausted: this is a partial report\n")
	}
	if r.Interrupted {
		sb.WriteString("\ncampaign interrupted: this is a partial report (resume from the journal to complete it)\n")
	}
	return sb.String()
}

// Suggest proposes a fix for the finding, in the spirit of Hippocrates
// (Neal et al., ASPLOS'21), which turns PM bug-finder output into safe
// fixes: the prescription follows mechanically from the §4.2 pattern
// that fired.
func (f Finding) Suggest() string {
	switch f.Kind {
	case TargetCrash:
		return "fix the abrupt failure first: the target crashed or looped without an injected fault, so every other finding is suspect"
	case RecoveryHang:
		return "bound the recovery scan: a corrupted image must be rejected with an error, not retried forever"
	case Durability:
		return "persist the store: flush its cache line(s) and fence before the data is relied upon"
	case DirtyOverwrite:
		return "move the repeatedly rewritten data to volatile memory, or persist between the writes"
	case RedundantFlush:
		return "remove the flush: the line holds no unpersisted data at this point"
	case RedundantFence:
		return "remove the fence: nothing is pending since the previous one"
	case WarnTransientData:
		return "if the region is meant to be durable, add flush+fence; otherwise move it to volatile memory"
	case WarnMultiStoreFlush:
		return "keep the single flush but assert the stores share a cache line across target platforms"
	case WarnFenceOrdering:
		return "if recovery depends on the order of these write-backs, fence between them"
	case WarnRedundantNTFlush:
		return "drop the flush: non-temporal stores bypass the cache, only the fence is needed"
	default:
		return "make the updates between the failure point and the recovery invariant failure-atomic (undo/redo logging or an atomic publication pointer)"
	}
}
