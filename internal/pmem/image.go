package pmem

// Image is a durable snapshot of pool contents — the state an
// application would observe after a restart.
//
// Every image is a frozen view (PrefixImage): a page table (medium.go)
// that shares pages with the engine that took it, with sibling
// snapshots and with engines later built from it, and none of them ever
// writes a shared page. Taking one therefore costs O(1), never O(pool).
// It also carries its content hash, maintained incrementally by the
// engine (dirty.go), so neither an identity check nor an engine built
// from the image rescans the pool. Images are read-only: a state that
// differs from one is built by an engine started from it
// (NewEngineFromImage), whose writes copy the pages they touch.
type Image struct {
	size   int
	chunks []*chunk
	// hash is the content hash, ContentHash of the materialised bytes.
	hash uint64
}

// Len returns the pool size in bytes.
func (img *Image) Len() int { return img.size }

// Bytes returns a fresh copy of the full contents. It caches nothing,
// so callers may keep or modify the slice, and it costs O(pool) on
// every call.
func (img *Image) Bytes() []byte {
	b := make([]byte, img.size)
	materialise(b, img.chunks)
	return b
}

// Hash returns the image's content hash — the crash-image identity
// verdict reuse keys on — in O(1).
func (img *Image) Hash() uint64 { return img.hash }

// PrefixImage returns the "graceful crash" image of §4.1: every store
// issued so far is persisted, respecting program order. This is the
// deterministic post-failure state Mumak's fault injector hands to the
// recovery procedure, and the only crash image an engine produces. It
// freezes the engine's view in O(1): phase 1 takes each failure point's
// image this way. On a fresh engine it is the all-zero pool.
func (e *Engine) PrefixImage() *Image {
	return &Image{size: e.view.size, chunks: e.view.freeze(), hash: e.viewHash}
}
