// Package perfbug plants the numbered performance defects of the bug
// registry at application call sites.
//
// Each knob "<app>/pf-NN" has a class assigned by the registry:
// redundant flush, redundant fence or transient data. Apply performs the
// matching misuse at the caller's site:
//
//   - redundant flush: a write-back of a line that has not been written
//     since it was last persisted (callers pass a known-clean address);
//   - redundant fence: an sfence issued when nothing is pending (callers
//     place the knob right after a persist);
//   - transient data: a counter bumped in PM on the hot path and never
//     flushed anywhere.
package perfbug

import (
	"mumak/internal/bugs"
	"mumak/internal/pmem"
	"mumak/internal/taxonomy"
)

// Apply plants the defect for knob id when enabled in set. clean must be
// the address of a persisted-and-unmodified line; scratch must be a PM
// slot reserved for the transient counter (never flushed by the app).
func Apply(e *pmem.Engine, set bugs.Set, id bugs.ID, clean, scratch uint64) {
	if !set.Has(id) {
		return
	}
	b, ok := bugs.Lookup(id)
	if !ok {
		return
	}
	switch b.Class {
	case taxonomy.RedundantFlush:
		e.CLWB(clean)
	case taxonomy.RedundantFence:
		e.SFence()
	case taxonomy.TransientData:
		e.Store64(scratch, e.Load64(scratch)+1)
	}
}

// ApplyN plants knobs "<app>/pf-<from>" through "<app>/pf-<to>"
// (inclusive) at this site. Targets call it on every operation, so
// without a seeded bug it returns before building any knob's ID.
func ApplyN(e *pmem.Engine, set bugs.Set, app string, from, to int, clean, scratch uint64) {
	if len(set) == 0 {
		return
	}
	for i := from; i <= to; i++ {
		Apply(e, set, NumberedID(app, i), clean, scratch)
	}
}

// NumberedID builds the registry ID of the i-th performance knob.
func NumberedID(app string, i int) bugs.ID {
	return bugs.ID(numbered(app, i))
}

func numbered(app string, i int) string {
	d1 := byte('0' + i/10)
	d2 := byte('0' + i%10)
	return app + "/pf-" + string([]byte{d1, d2})
}
