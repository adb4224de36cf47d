// Package pmdk is a from-scratch reimplementation of the libpmemobj
// programming model the paper's targets are built on: a persistent pool
// with a root object, a persistent heap allocator, undo-log transactions
// and pmemcheck-style annotations.
//
// Three library versions are modelled (§6.1, §6.4):
//
//   - V16 and V18 correspond to PMDK 1.6 and 1.8, the versions used by
//     the baseline tools' papers. Their transaction and allocation
//     protocols are correct; V18 changes the atomic-list protocol in a
//     way that breaks the hashmap_atomic example, reproducing the
//     paper's observation that "Hashmap Atomic does not work correctly
//     with PMDK 1.8".
//   - V112 corresponds to PMDK 1.12.0 and carries the crash-consistency
//     bug Mumak found in pmemobj_tx_commit (pmem/pmdk#5461, confirmed
//     high-priority and fixed): a fault injected while a large
//     transaction grows its dynamically allocated undo-log space leaves
//     the log pointing at an uninitialised region, so the post-failure
//     recovery of the log crashes.
package pmdk

import (
	"errors"
	"fmt"

	"mumak/internal/pmem"
)

// Version selects the modelled PMDK release.
type Version uint8

// Modelled library versions.
const (
	// V16 models PMDK 1.6.
	V16 Version = iota
	// V18 models PMDK 1.8.
	V18
	// V112 models PMDK 1.12.0, including the pmemobj_tx_commit
	// crash-consistency bug found by Mumak.
	V112
)

var versionNames = [...]string{V16: "1.6", V18: "1.8", V112: "1.12.0"}

// String returns the release string.
func (v Version) String() string {
	if int(v) < len(versionNames) {
		return versionNames[v]
	}
	return "?"
}

// Pool layout constants. All offsets are within the engine's flat pool
// address space.
const (
	magic = 0x504d444b4f424a31 // "PMDKOBJ1"

	offMagic     = 0x00
	offVersion   = 0x08
	offRootOff   = 0x10
	offRootSize  = 0x18
	offHeapBump  = 0x20
	offHeapEnd   = 0x28
	offFreeHead  = 0x30
	offTxState   = 0x38
	offTxBytes   = 0x40
	offTxOverOff = 0x48
	offTxOverCap = 0x50
	offTxLog     = 0x80
	// txLogCap is the capacity of the statically allocated undo-log
	// area; larger transactions dynamically allocate overflow space
	// from the heap.
	txLogCap = 2048

	headerEnd = offTxLog + txLogCap

	txStateIdle   = 0
	txStateActive = 1

	// allocAlign is the allocation granularity.
	allocAlign = 16
	// minOverflow is the first dynamically allocated undo-log size.
	minOverflow = 4096
)

// Errors returned by pool operations.
var (
	// ErrBadPool signals a corrupt pool header.
	ErrBadPool = errors.New("pmdk: invalid pool header")
	// ErrNeverCreated signals a pool whose creation never completed
	// (the magic commit record is absent). Applications treat this as
	// a consistent "start fresh" state: pool creation persists its
	// header first and the magic last, so an interrupted creation is
	// always detectable and harmless.
	ErrNeverCreated = errors.New("pmdk: pool creation never completed")
	// ErrVersionMismatch signals opening a pool with a different
	// library version than created it.
	ErrVersionMismatch = errors.New("pmdk: pool version mismatch")
	// ErrOutOfMemory signals heap exhaustion.
	ErrOutOfMemory = errors.New("pmdk: out of persistent memory")
	// ErrTxActive signals nesting or reopening an active transaction.
	ErrTxActive = errors.New("pmdk: transaction already active")
)

// Pool is an open persistent object pool.
type Pool struct {
	e        *pmem.Engine
	ver      Version
	rootOff  uint64
	rootSize uint64
	// undo carries old data between the pool and the undo log:
	// AddRange loads a range into it before logging it, and rollback
	// reads each entry into it before restoring it. It lives in the
	// Pool, not the Tx, because a Tx lives for one transaction.
	undo []byte
}

// Create formats the engine's pool and returns it opened. rootSize bytes
// starting at Root() are reserved for the application's root object.
func Create(e *pmem.Engine, ver Version, rootSize int) (*Pool, error) {
	if rootSize < 8 {
		rootSize = 8
	}
	rootOff := uint64(headerEnd)
	heapStart := align(rootOff+uint64(rootSize), allocAlign)
	if heapStart >= uint64(e.Size()) {
		return nil, ErrOutOfMemory
	}
	p := &Pool{e: e, ver: ver, rootOff: rootOff, rootSize: uint64(rootSize)}
	e.Store64(offVersion, uint64(ver))
	e.Store64(offRootOff, rootOff)
	e.Store64(offRootSize, uint64(rootSize))
	e.Store64(offHeapBump, heapStart)
	e.Store64(offHeapEnd, uint64(e.Size()))
	e.Store64(offFreeHead, 0)
	e.Store64(offTxState, txStateIdle)
	e.Store64(offTxBytes, 0)
	e.Store64(offTxOverOff, 0)
	e.Store64(offTxOverCap, 0)
	p.Persist(offVersion, offTxOverCap+8-offVersion)
	// The magic is the pool's commit record: persisted last so a crash
	// during creation is detectable.
	e.Store64(offMagic, magic)
	p.Persist(offMagic, 8)
	return p, nil
}

// Open validates the header and recovers any interrupted transaction,
// exactly as pmemobj_open replays the undo log on startup.
func Open(e *pmem.Engine, ver Version) (*Pool, error) {
	switch e.Load64(offMagic) {
	case magic:
	case 0:
		return nil, ErrNeverCreated
	default:
		return nil, ErrBadPool
	}
	if Version(e.Load64(offVersion)) != ver {
		return nil, fmt.Errorf("%w: pool has %s, library is %s",
			ErrVersionMismatch, Version(e.Load64(offVersion)), ver)
	}
	p := &Pool{
		e:        e,
		ver:      ver,
		rootOff:  e.Load64(offRootOff),
		rootSize: e.Load64(offRootSize),
	}
	if p.rootOff == 0 || p.rootOff+p.rootSize > uint64(e.Size()) {
		return nil, ErrBadPool
	}
	// Undo-log metadata sanity: capacity without a region (or vice
	// versa) means the log can no longer be trusted. This is the
	// assertion the pmem/pmdk#5461 crash window trips.
	overOff, overCap := e.Load64(offTxOverOff), e.Load64(offTxOverCap)
	if (overOff == 0) != (overCap == 0) {
		panic(fmt.Sprintf("pmdk: undo log overflow metadata corrupt (off=0x%x cap=%d)", overOff, overCap))
	}
	if err := p.recoverTxLog(); err != nil {
		return nil, err
	}
	return p, nil
}

// Engine exposes the underlying PM engine for data access.
func (p *Pool) Engine() *pmem.Engine { return p.e }

// Version returns the library version the pool was created with.
func (p *Pool) Version() Version { return p.ver }

// Root returns the offset of the application root object.
func (p *Pool) Root() uint64 { return p.rootOff }

// RootSize returns the root object size in bytes.
func (p *Pool) RootSize() int { return int(p.rootSize) }

// Persist makes [off, off+size) durable: clwb over every covered cache
// line followed by an sfence (pmem_persist). The annotation asserting
// the range persistent fires only after the drain completes.
func (p *Pool) Persist(off uint64, size int) {
	p.Flush(off, size)
	p.Drain()
	p.e.Annotate(pmem.AnnPersist, off, size)
}

// Flush writes back the cache lines covering [off, off+size) without
// draining (pmem_flush).
func (p *Pool) Flush(off uint64, size int) {
	if size <= 0 {
		return
	}
	first := off &^ (pmem.CacheLineSize - 1)
	last := (off + uint64(size) - 1) &^ (pmem.CacheLineSize - 1)
	for line := first; line <= last; line += pmem.CacheLineSize {
		p.e.CLWB(line)
	}
}

// Drain waits for flushed data to become durable (pmem_drain).
func (p *Pool) Drain() { p.e.SFence() }

// FlushDirty writes back only the dirty cache lines covering
// [off, off+size): the transaction commit path uses it so that clean
// lines of coarsely snapshotted ranges cost nothing.
func (p *Pool) FlushDirty(off uint64, size int) int {
	if size <= 0 {
		return 0
	}
	flushed := 0
	first := off &^ (pmem.CacheLineSize - 1)
	last := (off + uint64(size) - 1) &^ (pmem.CacheLineSize - 1)
	for line := first; line <= last; line += pmem.CacheLineSize {
		if p.e.LineDirty(line) {
			p.e.CLWB(line)
			flushed++
		}
	}
	return flushed
}

// PersistDirty makes the dirty lines of [off, off+size) durable,
// skipping clean ones (nodes are rarely line-aligned, so blanket
// persists would re-flush clean boundary lines shared with neighbouring
// allocations — wasted write-backs Mumak itself flags). The drain is
// skipped when nothing was flushed.
func (p *Pool) PersistDirty(off uint64, size int) {
	if p.FlushDirty(off, size) > 0 {
		p.Drain()
	}
	p.e.Annotate(pmem.AnnPersist, off, size)
}

func align(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
