package pmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"mumak/internal/stack"
)

// line is one volatile cache line. data is a full copy of the line
// contents; dirty has bit i set when byte i diverges from the medium.
type line struct {
	base  uint64
	data  [CacheLineSize]byte
	dirty uint64
}

// pending is an asynchronous write-back (clwb, clflushopt or ntstore)
// that has left the cache but is not yet guaranteed durable: it becomes
// durable at the next fence, or may be dropped by a power-cut crash.
type pending struct {
	base  uint64
	data  [CacheLineSize]byte
	dirty uint64
	// icount is the instruction that issued the write-back.
	icount uint64
	// next is the queue index of the next write-back to the same line,
	// or -1.
	next int
}

// lineQueue is the per-line index of the write-pending queue: the queue
// indices of the first and the last write-back to one line. Following
// pending.next from head visits exactly that line's write-backs, in
// queue order.
type lineQueue struct{ head, tail int }

// Engine simulates a single hardware thread issuing PM instructions
// against a pool. It is not safe for concurrent use: the targets under
// analysis execute deterministically on one goroutine, as required by the
// instruction-counter optimisation of §5.
type Engine struct {
	opts  Options
	med   medium
	lines map[uint64]*line
	// queue is the write-pending queue in issue order; pend indexes it
	// by line.
	queue  []pending
	pend   map[uint64]lineQueue
	hooks  []Hook
	anns   []AnnotationObserver
	icount uint64
	rng    *rand.Rand
	stats  Stats
	// demands are the hooks that choose which events' stacks they need;
	// eager is set once a hook without a StackDemand is attached, which
	// takes the stack of every event in the Options.Capture classes.
	demands []StackDemand
	eager   bool
	// evictable caches the keys of lines for seeded eviction.
	evictKeys []uint64

	// mediumHash is the rolling XOR fold of per-line content hashes
	// over the medium, maintained incrementally at each line write so
	// image content keys never require a full-pool scan.
	mediumHash uint64
	// view, kept only under Options.TrackPrefixHash, is a second
	// copy-on-write medium holding the coherent (load-visible) state,
	// which is provably also the graceful-crash PrefixImage state: for
	// an uncached line both are medium plus queued write-backs in issue
	// order, and a cached line's data is seeded from that view and kept
	// coherent, so its non-dirty bytes always equal it. The view
	// therefore changes only where the coherent state does: stores
	// (RMWs included), NT stores, and seeded evictions whose dirty bytes
	// are re-overlaid by an older queued write-back (evictLine).
	// Freezing it is PrefixImage in O(1). viewHash is its rolling
	// content hash, the failure points' phase-1 stamp.
	view     medium
	viewHash uint64

	// ckpt, when non-nil, records every state mutation (and periodic
	// full-state snapshots) as this engine executes, for O(gap)
	// replays (ReplayTo). See checkpoint.go.
	ckpt *CheckpointStore
}

// NewEngine creates an engine over a zeroed pool.
func NewEngine(opts Options) *Engine {
	o := opts.withDefaults()
	e := newEngine(o, newMedium(o.PoolSize))
	e.seedView()
	return e
}

// newEngine creates an engine over med. o must have defaults applied.
func newEngine(o Options, med medium) *Engine {
	e := &Engine{
		opts:  o,
		med:   med,
		lines: make(map[uint64]*line),
		pend:  make(map[uint64]lineQueue),
		rng:   rand.New(rand.NewSource(o.Seed)),
	}
	if o.CheckpointEvery > 0 {
		e.ckpt = newCheckpointStore(o, o.CheckpointEvery)
	}
	return e
}

// NewEngineFromImage creates an engine whose medium is initialised from a
// crash image, as happens when an application restarts after a failure.
// The engine starts from the image's pages and copies a page only when it
// first writes to it, so the image itself never changes.
func NewEngineFromImage(opts Options, img *Image) *Engine {
	o := opts
	o.PoolSize = img.Len()
	o = o.withDefaults()
	e := newEngine(o, img.medium(o.PoolSize))
	// Seed the rolling hash from the image so this engine's own
	// snapshots stay hash-tracked; engine-produced images carry the
	// hash already, making this O(1) on the oracle path.
	e.mediumHash = img.Hash()
	// Cache and queue are empty at restart, so the view shares the
	// medium's pages.
	e.seedView()
	if e.ckpt != nil {
		// A recording engine seeded from an image starts its delta
		// chain here, not at a zeroed pool: the genesis checkpoint must
		// carry the image as its base state.
		e.ckpt.base = e.med.freeze()
		e.ckpt.cps[0].hash = e.mediumHash
	}
	return e
}

// seedView builds the coherent view of an engine that keeps one from
// its current state: the graceful-crash image derived from the medium,
// whose pages the view then shares. Constructors call it once the
// medium, cache and queue are in place.
func (e *Engine) seedView() {
	if !e.opts.TrackPrefixHash {
		return
	}
	img := e.prefixFromMedium()
	e.view = sharedMedium(img.size, img.chunks)
	e.viewHash = img.hash
}

// writeView copies data into the coherent view of the line at base,
// starting at line offset off, keeping viewHash current.
func (e *Engine) writeView(base, off uint64, data []byte) {
	v := e.view.writable(base)
	e.viewHash ^= lineContrib(base, v)
	copy(v[off:], data)
	e.viewHash ^= lineContrib(base, v)
}

// Checkpoints returns the checkpoint store recorded by this engine's
// execution, or nil when Options.CheckpointEvery was zero. The store
// must be considered read-only once the recorded run has finished.
//
// Deprecated: the campaign records no checkpoints; only the benchmark's
// traced pipeline (bench/trace.go) still reads them.
func (e *Engine) Checkpoints() *CheckpointStore { return e.ckpt }

// maybeCheckpoint snapshots full engine state once the instruction
// counter reaches the next checkpoint due point. It must run only after
// the current instruction's mutations (including seeded evictions) have
// fully applied, so the snapshot is exactly the state a crash strictly
// after this counter would observe.
func (e *Engine) maybeCheckpoint() {
	if e.ckpt != nil && e.icount >= e.ckpt.nextAt {
		e.ckpt.take(e)
	}
}

// Size returns the pool size in bytes.
func (e *Engine) Size() int { return e.med.size }

// ICount returns the current instruction counter (the counter of the last
// delivered event).
func (e *Engine) ICount() uint64 { return e.icount }

// Stacks returns the stack table used for capture, if any.
func (e *Engine) Stacks() *stack.Table { return e.opts.Stacks }

// AttachHook registers a hook; it also registers the hook as an
// annotation observer when it implements AnnotationObserver, consults it
// before capturing a stack when it implements StackDemand, and hands it
// the engine when it implements EngineObserver.
func (e *Engine) AttachHook(h Hook) {
	e.hooks = append(e.hooks, h)
	if sd, ok := h.(StackDemand); ok {
		e.demands = append(e.demands, sd)
	} else {
		e.eager = true
	}
	if ao, ok := h.(AnnotationObserver); ok {
		e.anns = append(e.anns, ao)
	}
	if eo, ok := h.(EngineObserver); ok {
		eo.ObserveEngine(e)
	}
}

func (e *Engine) check(addr uint64, size int) {
	if size < 0 || addr > uint64(e.med.size) || addr+uint64(size) > uint64(e.med.size) {
		panic(fmt.Sprintf("pmem: access [0x%x,0x%x) outside pool of %d bytes", addr, addr+uint64(size), e.med.size))
	}
}

// wantsStack reports whether an attached hook needs the call stack of
// ev: the capture classes must cover its opcode, and then either some
// hook takes every such stack or some StackDemand asks for this one.
// It runs before any hook sees ev.
func (e *Engine) wantsStack(ev *Event) bool {
	if !e.opts.Capture.covers(ev.Op) {
		return false
	}
	if e.eager {
		return true
	}
	for _, d := range e.demands {
		if d.WantsStack(ev) {
			return true
		}
	}
	return false
}

func (e *Engine) emit(op Opcode, addr uint64, size int, data []byte) {
	e.icount++
	if e.icount == e.opts.CrashAt {
		panic(&CrashSignal{ICount: e.icount, Reason: "failure point (counter mode)"})
	}
	if e.opts.MaxEvents != 0 && e.icount > e.opts.MaxEvents {
		panic(&HangSignal{ICount: e.icount, Budget: e.opts.MaxEvents})
	}
	if e.icount%deadlineEvery == 0 && !e.opts.Deadline.IsZero() && time.Now().After(e.opts.Deadline) {
		panic(&HangSignal{ICount: e.icount, Deadline: true})
	}
	if len(e.hooks) == 0 {
		return
	}
	ev := Event{
		ICount: e.icount,
		Op:     op,
		Addr:   addr,
		Size:   size,
		Data:   data,
		Stack:  stack.NoID,
	}
	if e.wantsStack(&ev) {
		// Skip emit and the engine entry point; trimming in the stack
		// table removes any residual instrumentation frames.
		ev.Stack = e.opts.Stacks.Capture(2)
	}
	for _, h := range e.hooks {
		h.OnEvent(&ev)
	}
}

// Annotate emits a library annotation to annotation observers. It is a
// no-op for Mumak itself, which is annotation-free.
func (e *Engine) Annotate(kind AnnKind, addr uint64, size int) {
	if len(e.anns) == 0 {
		return
	}
	a := Annotation{ICount: e.icount, Kind: kind, Addr: addr, Size: size}
	for _, ao := range e.anns {
		ao.OnAnnotation(&a)
	}
}

// lineView returns the coherent contents of the line at base as seen by
// a load when the line is not cached: the medium overlaid with any queued
// (unfenced) write-backs, applied in issue order.
func (e *Engine) lineView(base uint64) [CacheLineSize]byte {
	var buf [CacheLineSize]byte
	copy(buf[:], e.med.line(base))
	e.overlayPending(buf[:], base)
	return buf
}

// overlayPending applies the queued write-backs to the line at base onto
// dst, in issue order. It costs O(write-backs pending on that line), and
// O(1) for a line with none.
func (e *Engine) overlayPending(dst []byte, base uint64) {
	if len(e.queue) == 0 {
		return
	}
	lq, ok := e.pend[base]
	if !ok {
		return
	}
	for i := lq.head; i >= 0; i = e.queue[i].next {
		applyMasked(dst, e.queue[i].data[:], e.queue[i].dirty)
	}
}

func (e *Engine) lineFor(addr uint64) *line {
	base := addr &^ (CacheLineSize - 1)
	ln := e.lines[base]
	if ln == nil {
		ln = &line{base: base}
		ln.data = e.lineView(base)
		e.lines[base] = ln
		e.evictKeys = append(e.evictKeys, base)
		if n := len(e.lines); n > e.stats.PeakCacheLines {
			e.stats.PeakCacheLines = n
		}
	}
	return ln
}

// Store writes data to PM through the cache. The write is volatile until
// the affected lines are flushed and fenced (or evicted).
func (e *Engine) Store(addr uint64, data []byte) {
	e.check(addr, len(data))
	e.emit(OpStore, addr, len(data), data)
	e.stats.Stores++
	e.stats.BytesStored += uint64(len(data))
	if e.ckpt != nil {
		e.ckpt.record(ckStore, e.icount, addr, data)
	}
	e.applyStore(addr, data)
	e.maybeEvict()
	e.maybeCheckpoint()
}

func (e *Engine) applyStore(addr uint64, data []byte) {
	for len(data) > 0 {
		ln := e.lineFor(addr)
		off := addr - ln.base
		n := copy(ln.data[off:], data)
		if e.opts.TrackPrefixHash {
			e.writeView(ln.base, off, data[:n])
		}
		ln.dirty |= storeMask(off, n)
		addr += uint64(n)
		data = data[n:]
	}
}

// Store64 writes an aligned 8-byte value; such a write is
// failure-atomic.
func (e *Engine) Store64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.Store(addr, b[:])
}

// NTStore performs a non-temporal store: the data bypasses the cache and
// enters the write-pending queue directly, but is only guaranteed durable
// after the next fence.
func (e *Engine) NTStore(addr uint64, data []byte) {
	e.check(addr, len(data))
	e.emit(OpNTStore, addr, len(data), data)
	e.stats.Stores++
	e.stats.NTStores++
	e.stats.BytesStored += uint64(len(data))
	if e.ckpt != nil {
		e.ckpt.record(ckNTStore, e.icount, addr, data)
	}
	e.applyNTStore(addr, data)
	e.maybeCheckpoint()
}

// applyNTStore is the state mutation of NTStore: it materialises the
// write as pending line images without dirtying the cache. If the line
// is currently cached, the volatile copy is kept coherent so subsequent
// loads observe the new data.
func (e *Engine) applyNTStore(addr uint64, data []byte) {
	for len(data) > 0 {
		base := addr &^ (CacheLineSize - 1)
		off := addr - base
		n := CacheLineSize - int(off)
		if n > len(data) {
			n = len(data)
		}
		if e.opts.TrackPrefixHash {
			e.writeView(base, off, data[:n])
		}
		var p pending
		p.base = base
		p.icount = e.icount
		if off != 0 || n != CacheLineSize {
			// Partial-line NT store: seed with the coherent view. A
			// full-line write needs no seed, which keeps bulk NT
			// zeroing (pmem_memset) linear in the region size.
			p.data = e.lineView(base)
			if ln := e.lines[base]; ln != nil {
				p.data = ln.data
			}
		}
		copy(p.data[off:], data[:n])
		p.dirty |= storeMask(off, n)
		if ln := e.lines[base]; ln != nil {
			copy(ln.data[off:], data[:n])
		}
		e.enqueue(p)
		addr += uint64(n)
		data = data[n:]
	}
}

// NTStore64 performs an aligned 8-byte non-temporal store.
func (e *Engine) NTStore64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.NTStore(addr, b[:])
}

// Load reads size bytes at addr into a fresh slice, observing cached
// (volatile) data when present.
func (e *Engine) Load(addr uint64, size int) []byte {
	e.check(addr, size)
	e.emit(OpLoad, addr, size, nil)
	e.stats.Loads++
	out := make([]byte, size)
	e.readInto(out, addr)
	return out
}

// readInto fills out with the current (cache-coherent) view at addr.
func (e *Engine) readInto(out []byte, addr uint64) {
	for len(out) > 0 {
		base := addr &^ (CacheLineSize - 1)
		off := addr - base
		n := CacheLineSize - int(off)
		if n > len(out) {
			n = len(out)
		}
		if ln := e.lines[base]; ln != nil {
			copy(out[:n], ln.data[off:])
		} else {
			view := e.lineView(base)
			copy(out[:n], view[off:])
		}
		addr += uint64(n)
		out = out[n:]
	}
}

// Load64 reads an aligned 8-byte little-endian value.
func (e *Engine) Load64(addr uint64) uint64 {
	var b [8]byte
	e.check(addr, 8)
	e.emit(OpLoad, addr, 8, nil)
	e.stats.Loads++
	e.readInto(b[:], addr)
	return binary.LittleEndian.Uint64(b[:])
}

// CLFlush synchronously writes the line containing addr back to the
// medium (and drops it from the cache).
func (e *Engine) CLFlush(addr uint64) {
	e.check(addr, 1)
	base := addr &^ (CacheLineSize - 1)
	e.emit(OpCLFlush, base, CacheLineSize, nil)
	e.stats.Flushes++
	if e.ckpt != nil {
		e.ckpt.record(ckCLFlush, e.icount, base, nil)
	}
	e.applyCLFlush(base)
	e.maybeCheckpoint()
}

// applyCLFlush is the state mutation of CLFlush. x86 orders flushes of
// the same line with each other: earlier asynchronous write-backs of
// this line complete first. It filters the whole queue, which costs
// O(queue); PM libraries flush with CLWB or CLFlushOpt instead.
func (e *Engine) applyCLFlush(base uint64) {
	if _, ok := e.pend[base]; ok {
		delete(e.pend, base)
		kept := e.queue[:0]
		for i := range e.queue {
			if e.queue[i].base == base {
				e.applyPending(&e.queue[i])
			} else {
				kept = append(kept, e.queue[i])
			}
		}
		e.queue = kept
		e.relink()
	}
	if ln := e.lines[base]; ln != nil {
		e.writeBack(ln)
		delete(e.lines, base)
	}
}

// CLFlushOpt asynchronously writes the line containing addr back and
// invalidates it; the write-back is durable only after the next fence.
func (e *Engine) CLFlushOpt(addr uint64) {
	e.flushAsync(addr, OpCLFlushOpt, true)
}

// CLWB asynchronously writes the line containing addr back, keeping the
// cached copy; the write-back is durable only after the next fence.
func (e *Engine) CLWB(addr uint64) {
	e.flushAsync(addr, OpCLWB, false)
}

func (e *Engine) flushAsync(addr uint64, op Opcode, invalidate bool) {
	e.check(addr, 1)
	base := addr &^ (CacheLineSize - 1)
	e.emit(op, base, CacheLineSize, nil)
	e.stats.Flushes++
	if e.ckpt != nil {
		tag := ckCLWB
		if invalidate {
			tag = ckCLFlushOpt
		}
		e.ckpt.record(tag, e.icount, base, nil)
	}
	e.applyFlushAsync(base, invalidate)
	e.maybeCheckpoint()
}

// applyFlushAsync is the state mutation of CLFlushOpt (invalidate) and
// CLWB (keep the cached copy).
func (e *Engine) applyFlushAsync(base uint64, invalidate bool) {
	ln := e.lines[base]
	if ln == nil {
		return
	}
	if ln.dirty != 0 {
		e.enqueue(pending{base: base, data: ln.data, dirty: ln.dirty, icount: e.icount})
		ln.dirty = 0
	}
	if invalidate {
		delete(e.lines, base)
	}
}

// SFence drains the write-pending queue: every buffered flush and
// non-temporal store issued before the fence becomes durable.
func (e *Engine) SFence() {
	e.emit(OpSFence, 0, 0, nil)
	e.stats.Fences++
	if e.ckpt != nil {
		e.ckpt.record(ckFence, e.icount, 0, nil)
	}
	e.drain()
	e.maybeCheckpoint()
}

// MFence behaves like SFence for persistency purposes.
func (e *Engine) MFence() {
	e.emit(OpMFence, 0, 0, nil)
	e.stats.Fences++
	if e.ckpt != nil {
		e.ckpt.record(ckFence, e.icount, 0, nil)
	}
	e.drain()
	e.maybeCheckpoint()
}

// CAS64 performs an aligned 8-byte compare-and-swap. Like hardware RMW
// instructions it has fence semantics: it drains the write-pending queue.
// The stored value itself lands in the cache and still requires an
// explicit flush to be durable.
func (e *Engine) CAS64(addr uint64, old, new uint64) bool {
	e.check(addr, 8)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], new)
	e.emit(OpRMW, addr, 8, b[:])
	e.stats.Fences++
	e.stats.RMWs++
	e.drain()
	var cur [8]byte
	e.readInto(cur[:], addr)
	if binary.LittleEndian.Uint64(cur[:]) != old {
		// The event stream alone cannot tell a failed CAS from a
		// successful one (both emit OpRMW with the new value), so the
		// log records the outcome explicitly.
		if e.ckpt != nil {
			e.ckpt.record(ckRMWFailed, e.icount, addr, nil)
		}
		e.maybeCheckpoint()
		return false
	}
	if e.ckpt != nil {
		e.ckpt.record(ckRMW, e.icount, addr, b[:])
	}
	e.applyStore(addr, b[:])
	e.maybeCheckpoint()
	return true
}

// FAA64 performs an aligned 8-byte fetch-and-add with fence semantics and
// returns the previous value.
func (e *Engine) FAA64(addr uint64, delta uint64) uint64 {
	e.check(addr, 8)
	var cur [8]byte
	e.readInto(cur[:], addr)
	prev := binary.LittleEndian.Uint64(cur[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], prev+delta)
	e.emit(OpRMW, addr, 8, b[:])
	e.stats.Fences++
	e.stats.RMWs++
	if e.ckpt != nil {
		e.ckpt.record(ckRMW, e.icount, addr, b[:])
	}
	e.drain()
	e.applyStore(addr, b[:])
	e.maybeCheckpoint()
	return prev
}

// drain makes every pending write-back durable, preserving issue order.
func (e *Engine) drain() {
	for i := range e.queue {
		e.applyPending(&e.queue[i])
		delete(e.pend, e.queue[i].base)
	}
	e.queue = e.queue[:0]
}

// enqueue appends a write-back to the queue and to its line's chain.
func (e *Engine) enqueue(p pending) {
	e.queue = append(e.queue, p)
	e.link(len(e.queue) - 1)
	if len(e.queue) > e.stats.PeakQueue {
		e.stats.PeakQueue = len(e.queue)
	}
}

// link appends queue entry i to the tail of its line's chain.
func (e *Engine) link(i int) {
	p := &e.queue[i]
	p.next = -1
	lq, ok := e.pend[p.base]
	if ok {
		e.queue[lq.tail].next = i
		lq.tail = i
	} else {
		lq = lineQueue{head: i, tail: i}
	}
	e.pend[p.base] = lq
}

// relink rebuilds the per-line chains over the current queue indices.
func (e *Engine) relink() {
	for i := range e.queue {
		delete(e.pend, e.queue[i].base)
	}
	for i := range e.queue {
		e.link(i)
	}
}

func (e *Engine) applyPending(p *pending) {
	e.writeMedium(p.base, p.data[:], p.dirty)
}

func (e *Engine) writeBack(ln *line) {
	if ln.dirty == 0 {
		return
	}
	e.writeMedium(ln.base, ln.data[:], ln.dirty)
	ln.dirty = 0
}

// maybeEvict spontaneously writes back a pseudo-random dirty line under
// the seeded eviction policy.
func (e *Engine) maybeEvict() {
	if e.opts.Eviction != EvictSeeded || len(e.lines) == 0 {
		return
	}
	if e.rng.Intn(e.opts.EvictOneIn) != 0 {
		return
	}
	// Pick a pseudo-random cached line; compact stale keys lazily.
	for tries := 0; tries < 4 && len(e.evictKeys) > 0; tries++ {
		i := e.rng.Intn(len(e.evictKeys))
		base := e.evictKeys[i]
		ln := e.lines[base]
		if ln == nil {
			e.evictKeys[i] = e.evictKeys[len(e.evictKeys)-1]
			e.evictKeys = e.evictKeys[:len(e.evictKeys)-1]
			continue
		}
		// Log the eviction explicitly: replays apply it from the log
		// rather than re-deriving it, so the rng state never needs to
		// be part of a checkpoint.
		if e.ckpt != nil {
			e.ckpt.record(ckEvict, e.icount, base, nil)
		}
		e.evictLine(ln)
		e.stats.Evictions++
		return
	}
}

// evictLine writes a line back and drops it from the cache (the state
// mutation of a seeded eviction, live or replayed from the checkpoint
// log). Eviction is the one operation besides stores that can change
// the coherent view: when an older queued write-back overlaps the
// line's dirty bytes, the queue re-overlays the freshly written-back
// medium at the next drain, so the post-eviction view reverts those
// bytes to the queued (older) data. The coherent view is rewritten only
// when that happened.
func (e *Engine) evictLine(ln *line) {
	if !e.opts.TrackPrefixHash {
		e.writeBack(ln)
		delete(e.lines, ln.base)
		return
	}
	old := ln.data
	e.writeBack(ln)
	delete(e.lines, ln.base)
	if cur := e.lineView(ln.base); cur != old {
		e.writeView(ln.base, 0, cur[:])
	}
}

// RollingPrefixHash returns the content hash of the coherent view —
// the value PrefixImageHash computes on demand — valid only under
// Options.TrackPrefixHash. Reading it is O(1), so phase 1 can stamp
// every candidate failure point with its crash-image identity as the
// instrumented run executes.
func (e *Engine) RollingPrefixHash() uint64 { return e.viewHash }

// TracksPrefixHash reports whether the engine keeps the coherent view
// and its rolling hash.
func (e *Engine) TracksPrefixHash() bool { return e.opts.TrackPrefixHash }

// PendingCount returns the number of queued (unfenced) write-backs.
func (e *Engine) PendingCount() int { return len(e.queue) }

// LineDirty reports whether the cache line containing addr holds
// unwritten-back store data. PM libraries use it to skip write-backs of
// clean lines.
func (e *Engine) LineDirty(addr uint64) bool {
	ln := e.lines[addr&^(CacheLineSize-1)]
	return ln != nil && ln.dirty != 0
}
