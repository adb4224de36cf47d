package pmdk

import (
	"runtime"
	"testing"
)

// The spare entry lists outlive every campaign in the process, so what
// putEntries keeps is bounded: one list per P, none longer than
// spareEntryCap.
func TestSpareEntriesBounded(t *testing.T) {
	for takeEntries() != nil {
	}
	putEntries(make([]undoEntry, 0, spareEntryCap+1))
	if l := takeEntries(); l != nil {
		t.Fatalf("kept a list of %d entries, more than %d", cap(l), spareEntryCap)
	}
	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < procs+3; i++ {
		putEntries(make([]undoEntry, 0, 8))
	}
	kept := 0
	for takeEntries() != nil {
		kept++
	}
	if kept != procs {
		t.Fatalf("kept %d lists with GOMAXPROCS %d, want one per P", kept, procs)
	}
}
