package pmdk

import (
	"runtime"
	"sync"
)

// undoEntry is one logged range as rollback finds it.
type undoEntry struct {
	off  uint64
	size uint64
	pos  uint64 // stream position of the data
}

// spareEntryCap is the longest entry list spareEntries keeps: 2^18
// entries, 6 MiB, enough for the CLI default's whole-workload
// transaction of about 150k logged ranges.
const spareEntryCap = 1 << 18

// spareEntries holds the entry lists earlier rollbacks grew, for later
// ones to reuse: regrown in every recovery, the list was a campaign's
// largest allocation. A kept list stays for the life of the process, so
// it keeps at most one list per P (a campaign runs GOMAXPROCS workers
// by default) and none longer than spareEntryCap: at most 6 MiB per P.
// It is not a sync.Pool, which keeps an item put back on the putting
// goroutine's P, out of reach of a Get on another P, and drops it at
// garbage collection, so a worker would often regrow.
var spareEntries struct {
	sync.Mutex
	lists [][]undoEntry
}

// takeEntries returns an empty entry list, an earlier rollback's when
// one is spare.
func takeEntries() []undoEntry {
	spareEntries.Lock()
	defer spareEntries.Unlock()
	n := len(spareEntries.lists)
	if n == 0 {
		return nil
	}
	l := spareEntries.lists[n-1]
	spareEntries.lists = spareEntries.lists[:n-1]
	return l[:0]
}

// putEntries hands l back for a later rollback, unless it is empty or
// longer than spareEntryCap, or every P already has a spare.
func putEntries(l []undoEntry) {
	if c := cap(l); c == 0 || c > spareEntryCap {
		return
	}
	spareEntries.Lock()
	defer spareEntries.Unlock()
	if len(spareEntries.lists) < runtime.GOMAXPROCS(0) {
		spareEntries.lists = append(spareEntries.lists, l)
	}
}
