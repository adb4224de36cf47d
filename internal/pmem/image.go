package pmem

// Image is a durable snapshot of pool contents — the state an
// application would observe after a restart.
//
// An engine-produced image is a frozen view (PrefixImage): a page table
// (medium.go) that shares pages with the engine that took it, with
// sibling snapshots and with engines later built from it, and none of
// them ever writes a shared page. Taking one therefore costs O(1), never
// O(pool). It also carries its content hash, maintained incrementally by
// the engine (dirty.go), so the identity checks of a campaign never
// rescan the pool.
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
	// bytes); hashed reports whether it is known yet.
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
// verdict reuse keys on. Frozen views (PrefixImage) carry it already;
// for hand-built images (Clone, NewImage) it is computed (and memoised)
// on first use, so call it only once the image is quiescent.
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

// PrefixImage returns the "graceful crash" image of §4.1: every store
// issued so far is persisted, respecting program order. This is the
// deterministic post-failure state Mumak's fault injector hands to the
// recovery procedure, and the only crash image an engine produces. It
// freezes the engine's view in O(1): phase 1 takes each failure point's
// image this way. On a fresh engine it is the all-zero pool.
func (e *Engine) PrefixImage() *Image {
	return &Image{size: e.view.size, chunks: e.view.freeze(), hash: e.viewHash, hashed: true}
}
