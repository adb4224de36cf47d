package pmem

// Image is a durable snapshot of pool contents — the state an
// application would observe after a restart.
//
// An engine-produced image is a frozen page table (medium.go): it shares
// pages with the engine that took it, with sibling snapshots and with
// engines later built from it, and none of them ever writes a shared
// page. Taking one therefore costs O(lines that differ from the engine's
// medium), never O(pool), and O(1) on an engine that keeps the coherent
// view (Options.TrackPrefixHash). Every engine-produced image also
// carries its content hash, maintained incrementally by the engine
// (dirty.go), so identity checks never rescan the pool.
//
// Engine-produced images must be treated as read-only. Callers that need
// a mutable buffer (the trace replay cursor, exhaustive-exploration
// baselines) take ownership through Clone or NewImage, which always
// yield a private flat copy.
type Image struct {
	size int
	// chunks is the frozen page table of an engine-produced image. flat
	// holds the contents of a hand-built image (Clone, NewImage), or
	// caches the materialised pages once Bytes has been called.
	chunks []*chunk
	flat   []byte
	// hash is the content hash (ContentHash of the materialised
	// bytes); hashed reports whether the producer computed it.
	hash   uint64
	hashed bool
}

// NewImage builds a flat image from raw pool contents. The data is
// copied; the caller keeps ownership of its slice.
func NewImage(data []byte) *Image {
	cp := make([]byte, len(data))
	copy(cp, data)
	return &Image{size: len(cp), flat: cp}
}

// Len returns the pool size in bytes.
func (img *Image) Len() int { return img.size }

// Bytes returns the full materialised contents. The slice is cached;
// callers must not modify it unless they own the image (Clone,
// NewImage).
func (img *Image) Bytes() []byte {
	if img.flat == nil {
		img.flat = make([]byte, img.size)
		materialise(img.flat, img.chunks)
	}
	return img.flat
}

// Hash returns the image's content hash — the crash-image identity
// verdict reuse keys on. Engine-produced images carry it
// already; for hand-built images it is computed (and memoised) on first
// use, so call it only once the image is quiescent.
func (img *Image) Hash() uint64 {
	if !img.hashed {
		img.hash = ContentHash(img.Bytes())
		img.hashed = true
	}
	return img.hash
}

// Clone returns a private flat deep copy that the caller may modify.
func (img *Image) Clone() *Image {
	cp := make([]byte, img.size)
	if img.flat != nil {
		copy(cp, img.flat)
	} else {
		materialise(cp, img.chunks)
	}
	return &Image{size: img.size, flat: cp}
}

// medium returns a medium of size bytes holding the image contents. It
// shares an engine-produced image's pages and copies a flat image.
func (img *Image) medium(size int) medium {
	if img.chunks != nil {
		return sharedMedium(size, img.chunks)
	}
	return flatMedium(size, img.flat)
}

// MediumSnapshot returns the strictly durable state. Under the classic
// ADR domain that is the medium contents only: dirty cache lines and
// unfenced write-backs are lost, the worst-case power-cut image. Under
// eADR the caches are inside the persistence domain, so every store is
// already durable and the snapshot equals the coherent view.
func (e *Engine) MediumSnapshot() *Image {
	if e.opts.EADR {
		return e.PrefixImage()
	}
	return e.mediumImage()
}

// mediumImage snapshots the raw medium, ignoring the persistence
// domain, by freezing its page table: O(1).
func (e *Engine) mediumImage() *Image {
	return &Image{size: e.med.size, chunks: e.med.freeze(), hash: e.mediumHash, hashed: true}
}

// PrefixImage returns the "graceful crash" image of §4.1: every store
// issued so far is persisted, respecting program order. This is the
// deterministic post-failure state Mumak's fault injector hands to the
// recovery procedure. An engine that keeps the coherent view
// (Options.TrackPrefixHash) freezes it in O(1): phase 1 takes each
// failure point's image this way. Any other engine builds it from the
// medium (prefixFromMedium).
func (e *Engine) PrefixImage() *Image {
	if e.opts.TrackPrefixHash {
		return &Image{size: e.view.size, chunks: e.view.freeze(), hash: e.viewHash, hashed: true}
	}
	return e.prefixFromMedium()
}

// prefixFromMedium builds the graceful-crash image from the durable
// state: the frozen medium with the durable view of every line with
// pending write-backs or dirty cached bytes written over private copies
// of their pages, in O(those lines).
func (e *Engine) prefixFromMedium() *Image {
	img := e.mediumImage()
	bases := e.durableOverlayBases()
	if len(bases) == 0 {
		return img
	}
	m := sharedMedium(img.size, img.chunks)
	for _, base := range bases {
		ln := m.writable(base)
		img.hash ^= lineContrib(base, ln)
		e.overlayDurable(ln, base)
		img.hash ^= lineContrib(base, ln)
	}
	img.chunks = m.chunks
	return img
}

// FencedImage returns the image in which fenced data plus an arbitrary
// caller-selected subset of the unfenced write-backs is durable. keep[i]
// selects the i-th queued write-back. It models the power-cut
// non-determinism between a flush and its fence. Panics if len(keep)
// differs from PendingCount.
func (e *Engine) FencedImage(keep []bool) *Image {
	if len(keep) != len(e.queue) {
		panic("pmem: FencedImage selector length mismatch")
	}
	img := e.mediumImage()
	m := sharedMedium(img.size, img.chunks)
	touched := make(map[uint64]struct{})
	for i := range e.queue {
		if !keep[i] {
			continue
		}
		p := &e.queue[i]
		if _, ok := touched[p.base]; !ok {
			touched[p.base] = struct{}{}
			img.hash ^= lineContrib(p.base, m.line(p.base))
		}
		applyMasked(m.writable(p.base), p.data[:], p.dirty)
	}
	for base := range touched {
		img.hash ^= lineContrib(base, m.line(base))
	}
	img.chunks = m.chunks
	return img
}
