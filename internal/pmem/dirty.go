package pmem

import "encoding/binary"

// Incremental content hashing.
//
// Crash-image deduplication (Vinter- and Jaaru-style) needs a content
// identity for an image that never requires hashing the full pool. Only
// the view, whose frozen copies are the graceful-crash images, is
// hash-tracked: it changes line by line, through writeView, so the
// engine maintains viewHash, an XOR fold of a per-line hash over the
// view, updated at each line write by removing the old line's
// contribution and adding the new one. Other images, MediumSnapshot's
// included, hash on first use. (Snapshots that cost O(1) rather than
// O(pool) come from the copy-on-write medium, medium.go.)
//
// An all-zero line contributes 0 to the fold, so a zeroed pool hashes
// to 0 and a fresh engine starts hash-tracked without scanning the
// pool. XOR is order-insensitive and self-inverse, which makes the
// swap-update O(1) per changed line; each line's hash is salted with
// its base address, so permuting content between lines changes the
// fold.

// hashSeed salts the per-line hash. It is a fixed constant on purpose:
// image hashes must agree across engines (and across the campaign's
// parallel workers) for identical durable contents.
const hashSeed = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer, a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lineContrib is the fold contribution of one cache line's content at
// the given base. All-zero lines contribute 0 (see package comment).
func lineContrib(base uint64, ln []byte) uint64 {
	_ = ln[CacheLineSize-1]
	var or uint64
	h := mix64(base + hashSeed)
	for i := 0; i < CacheLineSize; i += 8 {
		w := binary.LittleEndian.Uint64(ln[i:])
		or |= w
		h = mix64(h ^ w)
	}
	if or == 0 {
		return 0
	}
	return h
}

// ContentHash hashes full pool contents with the same per-line fold the
// engine maintains incrementally: for any image,
// ContentHash(img.Bytes()) == img.Hash(). It is O(len(data)) and exists
// for images built from raw bytes and for tests; engine-produced images
// carry their hash already.
func ContentHash(data []byte) uint64 {
	var h uint64
	n := len(data) &^ (CacheLineSize - 1)
	for base := 0; base < n; base += CacheLineSize {
		h ^= lineContrib(uint64(base), data[base:base+CacheLineSize])
	}
	// Fold a trailing partial line zero-padded to line size. Engine
	// pools are always line-aligned (withDefaults rounds up), but
	// hand-built images need not be; ignoring the tail would let two
	// images differing only there collide, and a hash collision is a
	// verdict-cache correctness issue, not just a quality issue.
	if rem := len(data) - n; rem > 0 {
		var tail [CacheLineSize]byte
		copy(tail[:], data[n:])
		h ^= lineContrib(uint64(n), tail[:])
	}
	return h
}

// byteMaskTab expands an 8-bit dirty mask into a 64-bit byte-select
// mask: dirty bit b set selects all eight bits of byte b.
var byteMaskTab = func() (t [256]uint64) {
	for b := 0; b < 256; b++ {
		var m uint64
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				m |= 0xff << (8 * i)
			}
		}
		t[b] = m
	}
	return
}()

// applyMasked overlays the dirty-selected bytes of src onto dst; both
// must be at least CacheLineSize long. A full mask takes the memmove
// fast path; partial masks are applied eight bytes at a time through
// word-expanded byte masks instead of a per-byte loop.
func applyMasked(dst, src []byte, dirty uint64) {
	if dirty == ^uint64(0) {
		copy(dst[:CacheLineSize], src[:CacheLineSize])
		return
	}
	if dirty == 0 {
		return
	}
	_ = dst[CacheLineSize-1]
	_ = src[CacheLineSize-1]
	for i := 0; i < CacheLineSize; i += 8 {
		m := byteMaskTab[(dirty>>uint(i))&0xff]
		if m == 0 {
			continue
		}
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d&^m|s&m)
	}
}

// storeMask builds the dirty mask for n consecutive bytes starting at
// line offset off (n in [1, CacheLineSize]).
func storeMask(off uint64, n int) uint64 {
	return ^uint64(0) >> (64 - uint(n)) << off
}

// writeMedium overlays the dirty-selected bytes of src onto the medium
// line at base. It is the only way the medium changes: it records the
// line for the next checkpoint's delta.
func (e *Engine) writeMedium(base uint64, src []byte, dirty uint64) {
	applyMasked(e.med.writable(base), src, dirty)
	if e.ckpt != nil {
		e.ckpt.dirty[base] = struct{}{}
	}
}

// PrefixImageHash returns the content hash of the image PrefixImage
// would build: the rolling hash of the view, in O(1). A failure point's
// phase-1 stamp is this hash at the leaf's counter.
func (e *Engine) PrefixImageHash() uint64 { return e.viewHash }
