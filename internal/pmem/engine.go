package pmem

import (
	"encoding/binary"
	"fmt"
	"time"

	"mumak/internal/stack"
)

// pending is an asynchronous write-back (clwb, clflushopt or ntstore)
// that has left the cache but is not yet guaranteed durable: it becomes
// durable at the next fence, or may be dropped by a power-cut crash.
// data is a copy of the line's coherent contents at issue; dirty selects
// the bytes the write-back carries.
type pending struct {
	base  uint64
	data  [CacheLineSize]byte
	dirty uint64
}

// Engine simulates a single hardware thread issuing PM instructions
// against a pool. It is not safe for concurrent use: the targets under
// analysis execute deterministically on one goroutine, as required by the
// instruction-counter optimisation of §5.
type Engine struct {
	opts Options
	// med is the durable medium.
	med medium
	// view is the coherent (load-visible) state and the only copy of
	// cached bytes: stores, RMWs and NT stores write it, loads read it,
	// and write-backs take their bytes from it. It is also the
	// graceful-crash PrefixImage state: every line of it is the medium
	// overlaid with the line's queued write-backs in issue order, then
	// with its dirty cached bytes. Flushes and fences move bytes between
	// those layers without changing the result, so the view changes only
	// at stores, RMW stores and NT stores, and freezing it is
	// PrefixImage in O(1). viewHash is its rolling content hash, the
	// failure points' phase-1 stamp.
	view     medium
	viewHash uint64
	// cache maps the base of every dirty line to its dirty mask: bit i
	// is set when byte i of the view has not been written back. A line
	// leaves it when a flush writes it back or queues it; the cache
	// never evicts on its own, so a clean line is indistinguishable
	// from an uncached one and is not kept.
	cache map[uint64]uint64
	// queue is the write-pending queue in issue order.
	queue  []pending
	hooks  []Hook
	anns   []AnnotationObserver
	icount uint64
	// demands are the hooks that choose which events' stacks they need;
	// eager is set once a hook without a StackDemand is attached, which
	// takes the stack of every event in the Options.Capture classes.
	demands []StackDemand
	eager   bool

	// ckpt, when non-nil, records every state mutation (and periodic
	// full-state snapshots) as this engine executes, for O(gap)
	// replays (ReplayTo). See checkpoint.go.
	ckpt *CheckpointStore
}

// NewEngine creates an engine over a zeroed pool.
func NewEngine(opts Options) *Engine {
	o := opts.withDefaults()
	return newEngine(o, newMedium(o.PoolSize), 0)
}

// newEngine creates an engine over med, whose content hash is hash. The
// cache and the queue start empty, so the view shares the medium's
// pages. o must have defaults applied.
func newEngine(o Options, med medium, hash uint64) *Engine {
	e := &Engine{
		opts:     o,
		med:      med,
		viewHash: hash,
		cache:    make(map[uint64]uint64),
	}
	e.view = sharedMedium(med.size, e.med.freeze())
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
	// Seed the view's rolling hash from the image; frozen views carry
	// their hash already, making this O(1) on the oracle path.
	e := newEngine(o, img.medium(o.PoolSize), img.Hash())
	if e.ckpt != nil {
		// A recording engine seeded from an image starts its delta
		// chain here, not at a zeroed pool: the genesis checkpoint must
		// carry the image as its base state.
		e.ckpt.base = e.med.freeze()
		e.ckpt.cps[0].viewHash = e.viewHash
	}
	return e
}

// writeView copies data into the view of the line at base, starting at
// line offset off, keeping viewHash current.
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
// the current instruction's mutation has fully applied, so the snapshot
// is exactly the state a crash strictly after this counter would
// observe.
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

// Events returns the total number of instruction events delivered.
func (e *Engine) Events() uint64 { return e.icount }

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

// Store writes data to PM through the cache. The write is volatile until
// the affected lines are flushed and fenced.
func (e *Engine) Store(addr uint64, data []byte) {
	e.check(addr, len(data))
	e.emit(OpStore, addr, len(data), data)
	if e.ckpt != nil {
		e.ckpt.record(ckStore, e.icount, addr, data)
	}
	e.applyStore(addr, data)
	e.maybeCheckpoint()
}

func (e *Engine) applyStore(addr uint64, data []byte) {
	for len(data) > 0 {
		base := addr &^ (CacheLineSize - 1)
		off := addr - base
		n := min(len(data), CacheLineSize-int(off))
		e.cache[base] |= storeMask(off, n)
		e.writeView(base, off, data[:n])
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
	if e.ckpt != nil {
		e.ckpt.record(ckNTStore, e.icount, addr, data)
	}
	e.applyNTStore(addr, data)
	e.maybeCheckpoint()
}

// applyNTStore is the state mutation of NTStore: it writes the view, so
// loads observe the new data whether or not the line is cached, and
// queues one write-back per line without dirtying the cache.
func (e *Engine) applyNTStore(addr uint64, data []byte) {
	for len(data) > 0 {
		base := addr &^ (CacheLineSize - 1)
		off := addr - base
		n := min(len(data), CacheLineSize-int(off))
		e.writeView(base, off, data[:n])
		e.enqueue(base, storeMask(off, n))
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
	out := make([]byte, size)
	e.readInto(out, addr)
	return out
}

// readInto fills out with the view at addr.
func (e *Engine) readInto(out []byte, addr uint64) {
	for len(out) > 0 {
		base := addr &^ (CacheLineSize - 1)
		n := copy(out, e.view.line(base)[addr-base:])
		addr += uint64(n)
		out = out[n:]
	}
}

// Load64 reads an aligned 8-byte little-endian value.
func (e *Engine) Load64(addr uint64) uint64 {
	var b [8]byte
	e.check(addr, 8)
	e.emit(OpLoad, addr, 8, nil)
	e.readInto(b[:], addr)
	return binary.LittleEndian.Uint64(b[:])
}

// CLFlush synchronously writes the line containing addr back to the
// medium (and drops it from the cache).
func (e *Engine) CLFlush(addr uint64) {
	e.check(addr, 1)
	base := addr &^ (CacheLineSize - 1)
	e.emit(OpCLFlush, base, CacheLineSize, nil)
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
	kept := e.queue[:0]
	for i := range e.queue {
		if p := &e.queue[i]; p.base == base {
			e.writeMedium(base, p.data[:], p.dirty)
		} else {
			kept = append(kept, *p)
		}
	}
	e.queue = kept
	if dirty, ok := e.cache[base]; ok {
		e.writeMedium(base, e.view.line(base), dirty)
		delete(e.cache, base)
	}
}

// CLFlushOpt asynchronously writes the line containing addr back and
// invalidates it; the write-back is durable only after the next fence.
func (e *Engine) CLFlushOpt(addr uint64) {
	e.flushAsync(addr, OpCLFlushOpt)
}

// CLWB asynchronously writes the line containing addr back, keeping the
// cached copy; the write-back is durable only after the next fence. The
// kept copy is clean, and a clean line behaves exactly like an uncached
// one, so CLWB and CLFlushOpt change the engine's state alike.
func (e *Engine) CLWB(addr uint64) {
	e.flushAsync(addr, OpCLWB)
}

func (e *Engine) flushAsync(addr uint64, op Opcode) {
	e.check(addr, 1)
	base := addr &^ (CacheLineSize - 1)
	e.emit(op, base, CacheLineSize, nil)
	if e.ckpt != nil {
		e.ckpt.record(ckFlushAsync, e.icount, base, nil)
	}
	e.applyFlushAsync(base)
	e.maybeCheckpoint()
}

// applyFlushAsync is the state mutation of CLFlushOpt and CLWB: it
// queues the line's dirty bytes and drops the line from the cache.
func (e *Engine) applyFlushAsync(base uint64) {
	if dirty, ok := e.cache[base]; ok {
		e.enqueue(base, dirty)
		delete(e.cache, base)
	}
}

// SFence drains the write-pending queue: every buffered flush and
// non-temporal store issued before the fence becomes durable.
func (e *Engine) SFence() {
	e.emit(OpSFence, 0, 0, nil)
	if e.ckpt != nil {
		e.ckpt.record(ckFence, e.icount, 0, nil)
	}
	e.drain()
	e.maybeCheckpoint()
}

// MFence behaves like SFence for persistency purposes.
func (e *Engine) MFence() {
	e.emit(OpMFence, 0, 0, nil)
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
		p := &e.queue[i]
		e.writeMedium(p.base, p.data[:], p.dirty)
	}
	e.queue = e.queue[:0]
}

// enqueue queues a write-back of the dirty-selected bytes of the line at
// base, copying the line from the view.
func (e *Engine) enqueue(base, dirty uint64) {
	e.queue = append(e.queue, pending{base: base, dirty: dirty})
	copy(e.queue[len(e.queue)-1].data[:], e.view.line(base))
}

// LineDirty reports whether the cache line containing addr holds
// unwritten-back store data. PM libraries use it to skip write-backs of
// clean lines.
func (e *Engine) LineDirty(addr uint64) bool {
	return e.cache[addr&^(CacheLineSize-1)] != 0
}
