package trace

import (
	"sort"

	"mumak/internal/pmem"
)

// Unit is an atomically persistable fragment of a store: the intersection
// of the store's byte range with one aligned 8-byte slot (§2: PM provides
// failure atomicity for aligned groups of 8 bytes).
type Unit struct {
	// Addr is the first byte of the fragment.
	Addr uint64
	// Data is the fragment payload (aliases the trace payload buffer).
	Data []byte
	// Rec is the index of the originating store record.
	Rec int
}

// splitUnits cuts a store record into 8-byte-atomic units.
func splitUnits(t *Trace, rec int) []Unit {
	r := &t.Records[rec]
	data := t.Payload(r)
	var out []Unit
	addr := r.Addr
	for len(data) > 0 {
		slotEnd := (addr | (pmem.AtomicUnit - 1)) + 1
		n := int(slotEnd - addr)
		if n > len(data) {
			n = len(data)
		}
		out = append(out, Unit{Addr: addr, Data: data[:n], Rec: rec})
		addr += uint64(n)
		data = data[n:]
	}
	return out
}

// Cursor incrementally replays a trace over the image it starts from,
// maintaining the certain-durable state and the set of maybe-durable
// units at every point. It is the one model of strict durability: the
// engine models only coherence and dirtiness (see package pmem), and
// every crash state other than the program-order prefix is built here
// from recorded writes. It is the machinery with which the
// exhaustive-exploration baselines (Yat, Witcher) and the ablation
// benches enumerate post-failure states that do not respect program
// order — the space Mumak deliberately skips (§4.1).
//
// The certain state lives in an engine of its own, and every image the
// cursor returns is a frozen snapshot of an engine's view, as the
// campaign's crash images are: it shares pages with the cursor and its
// siblings, carries its content hash, and costs only the pages its own
// units write. Nothing done later changes a returned image.
type Cursor struct {
	t *Trace
	// certain is written only by applyUnit, with non-temporal stores,
	// which write the view and mark no line dirty.
	certain *pmem.Engine
	pos     int
	// dirty maps cache-line base -> units stored but not written back.
	dirty map[uint64][]Unit
	// inflight holds units written back (clwb/clflushopt/ntstore) but
	// not yet fenced, in record order.
	inflight []Unit
}

// NewCursor returns a cursor positioned before the first record, whose
// certain state is the image the trace starts from. The cursor shares
// that image's pages and never writes them. t must have been recorded
// by a Recorder attached to an engine.
func NewCursor(t *Trace) *Cursor {
	return &Cursor{
		t:       t,
		certain: pmem.NewEngineFromImage(pmem.Options{}, t.start),
		dirty:   make(map[uint64][]Unit),
	}
}

// Pos returns the index of the next record to apply.
func (c *Cursor) Pos() int { return c.pos }

// Step applies the next record and reports whether one was applied.
func (c *Cursor) Step() bool {
	if c.pos >= len(c.t.Records) {
		return false
	}
	r := &c.t.Records[c.pos]
	switch r.Op {
	case pmem.OpStore:
		for _, u := range splitUnits(c.t, c.pos) {
			base := u.Addr &^ (pmem.CacheLineSize - 1)
			c.dirty[base] = append(c.dirty[base], u)
		}
	case pmem.OpNTStore:
		for _, u := range splitUnits(c.t, c.pos) {
			c.inflight = append(c.inflight, u)
			// A non-temporal store to a line with dirty cached data
			// also updates the cached copy (the engine keeps the
			// cache coherent), so a later write-back of that line
			// carries the NT data as well.
			base := u.Addr &^ (pmem.CacheLineSize - 1)
			if len(c.dirty[base]) > 0 {
				c.dirty[base] = append(c.dirty[base], u)
			}
		}
	case pmem.OpCLFlush:
		base := r.Addr &^ (pmem.CacheLineSize - 1)
		// Earlier in-flight write-backs of the same line complete
		// first (they carry older data), then the synchronous flush.
		c.drainInflightLine(base)
		c.applyUnits(c.dirty[base])
		delete(c.dirty, base)
	case pmem.OpCLFlushOpt, pmem.OpCLWB:
		base := r.Addr &^ (pmem.CacheLineSize - 1)
		if units := c.dirty[base]; len(units) > 0 {
			c.inflight = append(c.inflight, units...)
			delete(c.dirty, base)
		}
	case pmem.OpSFence, pmem.OpMFence, pmem.OpRMW:
		c.applyUnits(c.inflight)
		c.inflight = c.inflight[:0]
		if r.Op == pmem.OpRMW {
			// The RMW's own store lands in the cache.
			for _, u := range splitUnits(c.t, c.pos) {
				base := u.Addr &^ (pmem.CacheLineSize - 1)
				c.dirty[base] = append(c.dirty[base], u)
			}
		}
	}
	c.pos++
	return true
}

func (c *Cursor) drainInflightLine(base uint64) {
	kept := c.inflight[:0]
	for _, u := range c.inflight {
		if u.Addr&^(pmem.CacheLineSize-1) == base {
			c.applyUnit(u)
		} else {
			kept = append(kept, u)
		}
	}
	c.inflight = kept
}

func (c *Cursor) applyUnits(units []Unit) {
	for _, u := range units {
		c.applyUnit(u)
	}
}

func (c *Cursor) applyUnit(u Unit) { c.certain.NTStore(u.Addr, u.Data) }

// SeekTo advances the cursor until Pos == n (or the trace ends).
func (c *Cursor) SeekTo(n int) {
	for c.pos < n && c.Step() {
	}
}

// Certain returns the guaranteed-durable image at the current position:
// the start image overlaid with every store that was clflushed, or
// written back or non-temporally stored and then fenced — the state a
// power cut under ADR leaves when no dirty line happens to be evicted.
// It is a read-only snapshot taken in O(1); stepping the cursor on does
// not change it.
func (c *Cursor) Certain() *pmem.Image { return c.certain.PrefixImage() }

// Uncertain returns the maybe-durable units at the current position in
// record order: in-flight write-backs racing the next fence, followed by
// dirty units that cache eviction could persist at any time.
func (c *Cursor) Uncertain() []Unit {
	out := make([]Unit, 0, len(c.inflight)+8)
	out = append(out, c.inflight...)
	bases := make([]uint64, 0, len(c.dirty))
	for base := range c.dirty {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		out = append(out, c.dirty[base]...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rec < out[j].Rec })
	return out
}

// Materialize builds a crash image from the current position: the certain
// image plus every uncertain unit selected by keep, applied in record
// order. uncertain must be the slice returned by Uncertain at the same
// position. The kept units go to a fresh engine started from the certain
// image, never to the cursor's own, so the result is a read-only
// snapshot that costs only the pages those units write.
func (c *Cursor) Materialize(uncertain []Unit, keep func(i int) bool) *pmem.Image {
	e := pmem.NewEngineFromImage(pmem.Options{}, c.certain.PrefixImage())
	for i, u := range uncertain {
		if keep(i) {
			e.NTStore(u.Addr, u.Data)
		}
	}
	return e.PrefixImage()
}

// PrefixImage builds the program-order-prefix image at the current
// position: certain plus all uncertain units. This reproduces the
// engine's PrefixImage from a recorded trace.
func (c *Cursor) PrefixImage() *pmem.Image {
	uncertain := c.Uncertain()
	return c.Materialize(uncertain, func(int) bool { return true })
}
