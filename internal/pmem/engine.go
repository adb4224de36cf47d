package pmem

import (
	"encoding/binary"
	"fmt"
	"time"

	"mumak/internal/stack"
)

// Engine simulates a single hardware thread issuing PM instructions
// against a pool. It is not safe for concurrent use: the targets under
// analysis execute deterministically on one goroutine, as required by the
// instruction-counter optimisation of §5.
//
// The engine keeps only what its callers read: the coherent view, the
// set of dirty lines, the instruction counter, the watchdogs and the
// hooks, plus the table and hash of the view's last hash fold. An
// instruction does no work for state nobody reads: it hashes nothing
// (PrefixImageHash folds on demand, hash.go), and a load is counted
// but handed only to the hooks that read loads (LoadDemand). Every
// other instruction reaches every hook, and the state a power cut would
// leave is built from those events by package trace's Cursor (see the
// package doc).
type Engine struct {
	opts Options
	// view is the coherent (load-visible) state: stores, RMWs and NT
	// stores write it, and loads read it. It is also the graceful-crash
	// PrefixImage state, in which every store issued so far has
	// persisted, so freezing it is PrefixImage in O(1).
	view medium
	// hashed is the view's table frozen at the last hash fold, nil for
	// the all-zero pool, and viewHash its content hash (hash.go).
	hashed   []*chunk
	viewHash uint64
	// dirty holds every line a cached store has written since a flush
	// of the line last wrote it back. The cache never evicts on its
	// own, and a clean line behaves exactly like an uncached one, so
	// nothing else about the cache is kept.
	dirty lineSet
	hooks []Hook
	// loaders are the hooks that read loads: every hook but those whose
	// LoadDemand declines them.
	loaders []Hook
	anns    []AnnotationObserver
	icount  uint64
	// demands are the hooks that choose which events' stacks they need;
	// eager is set once a hook without a StackDemand is attached, which
	// takes the stack of every event in the Options.Capture classes.
	demands []StackDemand
	eager   bool

	// ckpt, when non-nil, records every state change (and periodic
	// snapshots) as this engine executes, for O(gap) replays
	// (ReplayTo). See checkpoint.go.
	ckpt *CheckpointStore

	// ev is the one Event emit overwrites for every instruction it
	// hands to hooks, and operand the buffer ev.Data aliases for
	// stores and RMWs; ann is Annotate's Annotation. None outlives the
	// hook calls of one instruction (see Hook), so the path from an
	// instruction to its hooks allocates nothing.
	ev      Event
	operand []byte
	ann     Annotation
}

// NewEngine creates an engine over a zeroed pool.
func NewEngine(opts Options) *Engine {
	o := opts.withDefaults()
	return newEngine(o, newMedium(o.PoolSize), nil, 0)
}

// newEngine creates an engine whose view is view and whose every line
// is clean. hashed is a frozen table the view starts from, or nil for
// the all-zero pool, and hash its content hash. o must have defaults
// applied.
func newEngine(o Options, view medium, hashed []*chunk, hash uint64) *Engine {
	e := &Engine{
		opts:     o,
		view:     view,
		hashed:   hashed,
		viewHash: hash,
		dirty:    newLineSet(o.PoolSize),
	}
	if o.CheckpointEvery > 0 {
		e.ckpt = newCheckpointStore(e)
	}
	return e
}

// NewEngineFromImage creates an engine whose pool holds a crash image, as
// happens when an application restarts after a failure. The engine
// starts from the image's pages in O(1), and copies a page only when it
// first writes to it, so the image itself never changes. Its first
// PrefixImageHash hashes the pool from scratch.
func NewEngineFromImage(opts Options, img *Image) *Engine {
	o := opts
	o.PoolSize = img.size
	o = o.withDefaults()
	return newEngine(o, sharedMedium(o.PoolSize, img.chunks), nil, 0)
}

// write copies data into the view at addr, line by line. A cached store
// also marks every line it writes dirty; a non-temporal one bypasses
// the cache and marks none.
func (e *Engine) write(addr uint64, data []byte, cached bool) {
	for len(data) > 0 {
		base := addr &^ (CacheLineSize - 1)
		off := addr - base
		n := min(len(data), CacheLineSize-int(off))
		if cached {
			e.dirty.add(base)
		}
		copy(e.view.writable(base)[off:], data[:n])
		addr += uint64(n)
		data = data[n:]
	}
}

// Checkpoints returns the checkpoint store recorded by this engine's
// execution, or nil when Options.CheckpointEvery was zero. The store
// must be considered read-only once the recorded run has finished.
//
// Deprecated: the campaign records no checkpoints; only the benchmark's
// traced pipeline (bench/trace.go) still reads them.
func (e *Engine) Checkpoints() *CheckpointStore { return e.ckpt }

// Size returns the pool size in bytes.
func (e *Engine) Size() int { return e.view.size }

// ICount returns the current instruction counter (the counter of the last
// delivered event).
func (e *Engine) ICount() uint64 { return e.icount }

// Events returns the total number of instruction events delivered.
func (e *Engine) Events() uint64 { return e.icount }

// AttachHook registers a hook; it also registers the hook as an
// annotation observer when it implements AnnotationObserver, consults it
// before capturing a stack when it implements StackDemand, asks it once
// whether it reads loads when it implements LoadDemand, and hands it the
// engine when it implements EngineObserver.
func (e *Engine) AttachHook(h Hook) {
	e.hooks = append(e.hooks, h)
	if ld, ok := h.(LoadDemand); !ok || ld.WantsLoads() {
		e.loaders = append(e.loaders, h)
	}
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
	if size < 0 || addr > uint64(e.view.size) || addr+uint64(size) > uint64(e.view.size) {
		panic(fmt.Sprintf("pmem: access [0x%x,0x%x) outside pool of %d bytes", addr, addr+uint64(size), e.view.size))
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
	if e.opts.MaxEvents != 0 && e.icount > e.opts.MaxEvents {
		panic(&HangSignal{ICount: e.icount, Budget: e.opts.MaxEvents})
	}
	if e.icount%deadlineEvery == 0 && !e.opts.Deadline.IsZero() && time.Now().After(e.opts.Deadline) {
		panic(&HangSignal{ICount: e.icount, Deadline: true})
	}
	// A load is counted like any instruction, but only the hooks that
	// read loads see it. No capture class covers loads, so it never
	// carries a stack.
	hooks := e.hooks
	if op == OpLoad {
		hooks = e.loaders
	}
	if len(hooks) == 0 {
		return
	}
	// The operand is copied, so the caller's buffer does not escape
	// through the hooks: Store64's and the RMWs' stay on the stack. It
	// takes a local of its own because escape analysis is
	// flow-insensitive: assigning e.operand to data would leak data.
	var operand []byte
	if data != nil {
		e.operand = append(e.operand[:0], data...)
		operand = e.operand
	}
	// Every field, one by one: a composite literal would be built on
	// the stack and then copied over the shared Event.
	ev := &e.ev
	ev.ICount = e.icount
	ev.Op = op
	ev.Addr = addr
	ev.Size = size
	ev.Data = operand
	ev.Stack = stack.NoID
	if e.wantsStack(ev) {
		// Skip emit and the engine entry point; trimming in the stack
		// table removes any residual instrumentation frames.
		ev.Stack = e.opts.Stacks.Capture(2)
	}
	for _, h := range hooks {
		h.OnEvent(ev)
	}
}

// Annotate emits a library annotation to annotation observers. It is a
// no-op for Mumak itself, which is annotation-free.
func (e *Engine) Annotate(kind AnnKind, addr uint64, size int) {
	if len(e.anns) == 0 {
		return
	}
	e.ann = Annotation{ICount: e.icount, Kind: kind, Addr: addr, Size: size}
	for _, ao := range e.anns {
		ao.OnAnnotation(&e.ann)
	}
}

// Store writes data to PM through the cache. The write is volatile until
// the affected lines are flushed and fenced.
func (e *Engine) Store(addr uint64, data []byte) {
	e.check(addr, len(data))
	e.emit(OpStore, addr, len(data), data)
	e.write(addr, data, true)
	e.commit(ckStore, addr, data)
}

// Store64 writes an aligned 8-byte value; such a write is
// failure-atomic.
func (e *Engine) Store64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.Store(addr, b[:])
}

// NTStore performs a non-temporal store: the data bypasses the cache,
// so loads observe it at once but no line turns dirty, and it is only
// guaranteed durable after the next fence.
func (e *Engine) NTStore(addr uint64, data []byte) {
	e.check(addr, len(data))
	e.emit(OpNTStore, addr, len(data), data)
	e.write(addr, data, false)
	e.commit(ckNTStore, addr, data)
}

// NTStore64 performs an aligned 8-byte non-temporal store.
func (e *Engine) NTStore64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.NTStore(addr, b[:])
}

// Load fills dst with the len(dst) bytes at addr, observing cached
// (volatile) data when present.
func (e *Engine) Load(dst []byte, addr uint64) {
	e.check(addr, len(dst))
	e.emit(OpLoad, addr, len(dst), nil)
	e.readInto(dst, addr)
}

// readInto fills out with the view at addr, a page per table lookup.
func (e *Engine) readInto(out []byte, addr uint64) {
	for len(out) > 0 {
		n := copy(out, e.view.span(addr))
		addr += uint64(n)
		out = out[n:]
	}
}

// Load64 reads an aligned 8-byte little-endian value.
func (e *Engine) Load64(addr uint64) uint64 {
	e.check(addr, 8)
	e.emit(OpLoad, addr, 8, nil)
	// A value within one page, which every aligned one is, decodes
	// straight from the page.
	if s := e.view.span(addr); len(s) >= 8 {
		return binary.LittleEndian.Uint64(s)
	}
	var b [8]byte
	e.readInto(b[:], addr)
	return binary.LittleEndian.Uint64(b[:])
}

// CLFlush synchronously writes the line containing addr back and
// invalidates it.
func (e *Engine) CLFlush(addr uint64) { e.flush(addr, OpCLFlush) }

// CLFlushOpt asynchronously writes the line containing addr back and
// invalidates it; the write-back is durable only after the next fence.
func (e *Engine) CLFlushOpt(addr uint64) { e.flush(addr, OpCLFlushOpt) }

// CLWB asynchronously writes the line containing addr back, keeping a
// clean cached copy; the write-back is durable only after the next
// fence.
func (e *Engine) CLWB(addr uint64) { e.flush(addr, OpCLWB) }

// flush issues a write-back of the line containing addr. Every flavour
// leaves the line clean, and a clean line behaves exactly like an
// uncached one; when the write-back becomes durable matters only to
// strict crash states, which trace.Cursor builds from the events. So
// each flavour only clears the line's dirty mark.
func (e *Engine) flush(addr uint64, op Opcode) {
	e.check(addr, 1)
	base := addr &^ (CacheLineSize - 1)
	e.emit(op, base, CacheLineSize, nil)
	e.dirty.remove(base)
	e.commit(ckFlush, base, nil)
}

// SFence makes every write-back and non-temporal store issued before it
// durable. Durability is trace.Cursor's to model, so the fence changes
// no engine state.
func (e *Engine) SFence() { e.fence(OpSFence) }

// MFence behaves like SFence for persistency purposes.
func (e *Engine) MFence() { e.fence(OpMFence) }

func (e *Engine) fence(op Opcode) {
	e.emit(op, 0, 0, nil)
	e.commit(0, 0, nil)
}

// CAS64 performs an aligned 8-byte compare-and-swap. Like hardware RMW
// instructions it has fence semantics, which, as for SFence, change no
// engine state. The stored value itself lands in the cache and still
// requires an explicit flush to be durable.
//
// The event carries the value the instruction leaves in the word: new
// when the compare succeeds, and the current value when it fails, which
// is what a locked cmpxchg writes back. A failed CAS changes nothing
// else, so it neither writes the view nor marks the line dirty.
func (e *Engine) CAS64(addr uint64, old, new uint64) bool {
	e.check(addr, 8)
	var b [8]byte
	e.readInto(b[:], addr)
	ok := binary.LittleEndian.Uint64(b[:]) == old
	if ok {
		binary.LittleEndian.PutUint64(b[:], new)
	}
	e.emit(OpRMW, addr, 8, b[:])
	if !ok {
		e.commit(0, 0, nil)
		return false
	}
	e.write(addr, b[:], true)
	e.commit(ckStore, addr, b[:])
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
	e.write(addr, b[:], true)
	e.commit(ckStore, addr, b[:])
	return prev
}

// LineDirty reports whether the cache line containing addr holds
// unwritten-back store data. PM libraries use it to skip write-backs of
// clean lines.
func (e *Engine) LineDirty(addr uint64) bool { return e.dirty.has(addr) }
