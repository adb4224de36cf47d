package pmdk

import (
	"errors"
	"fmt"

	"mumak/internal/pmem"
)

// Undo-log transactions.
//
// The log is a byte stream of entries {offset u64, size u64, old data}.
// The first txLogCap stream bytes live in the statically allocated log
// area; beyond that, the stream continues in a dynamically allocated
// overflow region (the "extra undo log space" of pmem/pmdk#5461). The
// persisted stream length (offTxBytes) is the log's validity horizon:
// entry bytes are persisted before the length that covers them, so the
// prefix up to offTxBytes is always well-formed — except under the V112
// overflow-growth bug, see grow.

// ErrTxTooLarge signals a transaction exceeding the available undo
// space.
var ErrTxTooLarge = errors.New("pmdk: transaction undo log exhausted")

// Tx is an open undo-log transaction. Transactions do not nest.
type Tx struct {
	p     *Pool
	bytes uint64 // mirror of offTxBytes
	// ranges accumulates the regions modified under this transaction,
	// flushed at commit.
	ranges []txRange
	// frees accumulates deferred frees executed after commit.
	frees []txRange
	done  bool
}

type txRange struct {
	off  uint64
	size int
}

// FreeOnCommit defers a Free until the transaction commits
// (pmemobj_tx_free): freeing inside the transaction would clobber data
// that a rollback must restore. Aborted transactions drop the request.
func (t *Tx) FreeOnCommit(off uint64, size int) {
	t.frees = append(t.frees, txRange{off: off, size: size})
}

// Begin opens a transaction (pmemobj_tx_begin).
func (p *Pool) Begin() (*Tx, error) {
	if p.e.Load64(offTxState) == txStateActive {
		return nil, ErrTxActive
	}
	p.e.Store64(offTxBytes, 0)
	p.Persist(offTxBytes, 8)
	p.e.Store64(offTxState, txStateActive)
	p.Persist(offTxState, 8)
	p.e.Annotate(pmem.AnnTxBegin, 0, 0)
	// The pool header (allocator metadata) and undo log are
	// library-internal: tools consuming pmemcheck-style annotations
	// must not flag stores there as unlogged application writes.
	p.e.Annotate(pmem.AnnNoDrain, 0, headerEnd)
	return &Tx{p: p}, nil
}

// AddRange snapshots [off, off+size) into the undo log
// (pmemobj_tx_add_range). Call before modifying the range.
func (t *Tx) AddRange(off uint64, size int) error {
	if t.done {
		return errors.New("pmdk: transaction already closed")
	}
	need := 16 + uint64(size)
	if err := t.ensure(t.bytes + need); err != nil {
		return err
	}
	old := t.p.undoBuf(size)
	t.p.e.Load(old, off)
	var hdr [16]byte
	put64(hdr[:], off)
	put64(hdr[8:], uint64(size))
	t.streamWrite(t.bytes, hdr[:])
	t.streamWrite(t.bytes+16, old)
	t.streamPersist(t.bytes, int(need))
	// The length persists only after the entry it covers.
	t.bytes += need
	t.p.e.Store64(offTxBytes, t.bytes)
	t.p.Persist(offTxBytes, 8)
	t.ranges = append(t.ranges, txRange{off: off, size: size})
	t.p.e.Annotate(pmem.AnnTxAdd, off, size)
	return nil
}

// Store64 combines AddRange and an 8-byte store, the common update shape.
func (t *Tx) Store64(off uint64, v uint64) error {
	if err := t.AddRange(off, 8); err != nil {
		return err
	}
	t.p.e.Store64(off, v)
	return nil
}

// Commit makes every range modified under the transaction durable and
// retires the log (pmemobj_tx_commit).
func (t *Tx) Commit() error {
	if t.done {
		return errors.New("pmdk: transaction already closed")
	}
	t.done = true
	p := t.p
	flushed := 0
	for _, r := range t.ranges {
		flushed += p.FlushDirty(r.off, r.size)
	}
	if flushed > 0 {
		p.Drain()
	}
	// Commit record: once the state returns to idle, recovery will not
	// roll back. The failure-atomic section ends here; the log
	// retirement and deferred frees below are post-commit cleanup.
	p.e.Store64(offTxState, txStateIdle)
	p.Persist(offTxState, 8)
	p.e.Annotate(pmem.AnnTxEnd, 0, 0)
	// Retire the log and release overflow space.
	p.e.Store64(offTxBytes, 0)
	p.Persist(offTxBytes, 8)
	if over := p.e.Load64(offTxOverOff); over != 0 {
		cap64 := p.e.Load64(offTxOverCap)
		if p.ver == V112 {
			// BUG (pmem/pmdk#5461): the dynamically allocated undo
			// space is released in two separately persisted steps. A
			// fault injected in the window between them leaves the
			// log metadata claiming overflow capacity at a null
			// offset; the next execution that touches the undo log
			// trips over it (the original issue crashes the
			// subsequent large transaction; our open-time metadata
			// check surfaces the same corrupt state during
			// recovery). Confirmed high-priority and fixed upstream.
			p.e.Store64(offTxOverOff, 0)
			p.Persist(offTxOverOff, 8)
			p.e.Store64(offTxOverCap, 0)
			p.Persist(offTxOverCap, 8)
		} else {
			// Correct: pointer and capacity retire under one persist;
			// no failure point separates them.
			p.e.Store64(offTxOverOff, 0)
			p.e.Store64(offTxOverCap, 0)
			p.Persist(offTxOverOff, 16)
		}
		p.Free(over, int(cap64))
	}
	for _, f := range t.frees {
		p.Free(f.off, f.size)
	}
	return nil
}

// Abort rolls the transaction back immediately (pmemobj_tx_abort).
func (t *Tx) Abort() error {
	if t.done {
		return errors.New("pmdk: transaction already closed")
	}
	t.done = true
	if err := t.p.rollback(t.bytes); err != nil {
		return err
	}
	t.p.e.Annotate(pmem.AnnTxEnd, 0, 0)
	return nil
}

// ensure grows the undo space to hold a stream of length need.
func (t *Tx) ensure(need uint64) error {
	p := t.p
	capNow := uint64(txLogCap) + p.e.Load64(offTxOverCap)
	if need <= capNow {
		return nil
	}
	overNeed := need - txLogCap
	newCap := align(maxU64(minOverflow, 2*overNeed), allocAlign)
	newOff, err := p.Alloc(int(newCap))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTxTooLarge, err)
	}
	// The new overflow region is library-internal from birth.
	p.e.Annotate(pmem.AnnNoDrain, newOff, int(newCap))
	oldOff := p.e.Load64(offTxOverOff)
	oldCap := p.e.Load64(offTxOverCap)

	if p.ver == V112 {
		// BUG (pmem/pmdk#5461 analogue): when a large transaction
		// grows its dynamically allocated undo space, the old region
		// is returned to the allocator *before* its entries are
		// copied to the new one. Free writes free-list metadata over
		// the first entry header, so the copied log is corrupt for
		// the remainder of the transaction: any injected crash after
		// this point makes the post-failure log recovery read a
		// garbage entry header and crash or restore garbage. The
		// window never hurts the crash-free path (commits do not read
		// the log), which is why the bug survived until a tool
		// injected faults under a large workload.
		p.e.Store64(offTxOverOff, newOff)
		p.e.Store64(offTxOverCap, newCap)
		p.Persist(offTxOverOff, 16)
		if oldOff != 0 {
			p.Free(oldOff, int(oldCap))
			p.copyPersistent(newOff, oldOff, int(oldCap))
		}
		return nil
	}

	// Correct protocol: copy first, persist the copy, then publish the
	// new region with a single atomic pointer+capacity switch.
	if oldOff != 0 {
		p.copyPersistent(newOff, oldOff, int(oldCap))
	}
	p.e.Store64(offTxOverOff, newOff)
	p.e.Store64(offTxOverCap, newCap)
	p.Persist(offTxOverOff, 16)
	if oldOff != 0 {
		p.Free(oldOff, int(oldCap))
	}
	return nil
}

// streamAddr maps a log stream position to a pool address and the
// contiguous run length available there.
func (p *Pool) streamAddr(pos uint64) (uint64, uint64) {
	if pos < txLogCap {
		return offTxLog + pos, txLogCap - pos
	}
	over := p.e.Load64(offTxOverOff)
	overCap := p.e.Load64(offTxOverCap)
	rel := pos - txLogCap
	if over == 0 || rel >= overCap {
		panic(fmt.Sprintf("pmdk: undo log position %d outside log (overflow %d bytes at 0x%x)", pos, overCap, over))
	}
	return over + rel, overCap - rel
}

func (t *Tx) streamWrite(pos uint64, data []byte) {
	for len(data) > 0 {
		addr, run := t.p.streamAddr(pos)
		n := len(data)
		if uint64(n) > run {
			n = int(run)
		}
		t.p.e.Store(addr, data[:n])
		pos += uint64(n)
		data = data[n:]
	}
}

func (t *Tx) streamPersist(pos uint64, size int) {
	for size > 0 {
		addr, run := t.p.streamAddr(pos)
		n := size
		if uint64(n) > run {
			n = int(run)
		}
		t.p.Flush(addr, n)
		pos += uint64(n)
		size -= n
	}
	t.p.Drain()
}

// streamRead fills dst with the log stream from pos on.
func (p *Pool) streamRead(dst []byte, pos uint64) {
	for len(dst) > 0 {
		addr, run := p.streamAddr(pos)
		n := len(dst)
		if uint64(n) > run {
			n = int(run)
		}
		p.e.Load(dst[:n], addr)
		pos += uint64(n)
		dst = dst[n:]
	}
}

// undoBuf returns the pool's undo buffer sliced to n bytes, growing it
// when it is shorter.
func (p *Pool) undoBuf(n int) []byte {
	if cap(p.undo) < n {
		p.undo = make([]byte, n)
	}
	return p.undo[:n]
}

// rollback restores every logged range, newest first, and retires the
// log. bytes is the valid stream length.
func (p *Pool) rollback(bytes uint64) error {
	type entry struct {
		off  uint64
		size uint64
		pos  uint64 // stream position of the data
	}
	// The list grows by append rather than from bytes: a corrupt log
	// must not size an allocation.
	var entries []entry
	var hdr [16]byte
	for pos := uint64(0); pos < bytes; {
		p.streamRead(hdr[:], pos)
		e := entry{off: get64(hdr[:]), size: get64(hdr[8:]), pos: pos + 16}
		if e.off+e.size > uint64(p.e.Size()) {
			// Malformed entry: with a well-formed log this cannot
			// happen; the V112 growth bug produces exactly this.
			panic(fmt.Sprintf("pmdk: undo log corrupt: entry at %d restores [0x%x,0x%x) outside pool", pos, e.off, e.off+e.size))
		}
		entries = append(entries, e)
		pos += 16 + e.size
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		old := p.undoBuf(int(e.size))
		p.streamRead(old, e.pos)
		p.e.Store(e.off, old)
		p.Flush(e.off, int(e.size))
	}
	p.Drain()
	p.e.Store64(offTxState, txStateIdle)
	p.Persist(offTxState, 8)
	p.e.Store64(offTxBytes, 0)
	p.Persist(offTxBytes, 8)
	return nil
}

// recoverTxLog rolls back an interrupted transaction on pool open.
func (p *Pool) recoverTxLog() error {
	if p.e.Load64(offTxState) != txStateActive {
		return nil
	}
	return p.rollback(p.e.Load64(offTxBytes))
}

// copyPersistent copies size bytes between pool regions and persists the
// destination.
func (p *Pool) copyPersistent(dst, src uint64, size int) {
	var chunk [256]byte
	for moved := 0; moved < size; moved += len(chunk) {
		data := chunk[:min(size-moved, len(chunk))]
		p.e.Load(data, src+uint64(moved))
		p.e.Store(dst+uint64(moved), data)
	}
	p.Flush(dst, size)
	p.Drain()
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func get64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
