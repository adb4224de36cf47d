package perfbug_test

import (
	"strings"
	"testing"

	"mumak/internal/apps/perfbug"
	"mumak/internal/bugs"
	"mumak/internal/pmem"
)

// Targets call ApplyN at several sites of every operation. Without a
// seeded bug it must return before building any knob's ID, so a clean
// target pays nothing for its knobs. An ID too long for the runtime's
// 32-byte concatenation buffer is built on the heap, which makes any ID
// built show up as an allocation.
func TestApplyNWithoutSeededBugsBuildsNoIDs(t *testing.T) {
	app := strings.Repeat("x", 40)
	e := pmem.NewEngine(pmem.Options{PoolSize: 4096})
	for _, set := range []bugs.Set{nil, {}} {
		allocs := testing.AllocsPerRun(100, func() {
			perfbug.ApplyN(e, set, app, 1, 12, 0, 64)
		})
		if allocs != 0 {
			t.Errorf("ApplyN with %d seeded bug(s) allocates %.1f objects per call, want 0", len(set), allocs)
		}
	}
	if e.ICount() != 0 {
		t.Fatalf("ApplyN without a seeded bug issued %d PM instructions", e.ICount())
	}
}
