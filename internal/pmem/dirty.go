package pmem

import "encoding/binary"

// Incremental content hashing.
//
// Crash-image deduplication (Vinter- and Jaaru-style) needs a content
// identity for an image that never requires hashing the full pool. The
// view, whose frozen copies are the graceful-crash images, changes line
// by line, through write, so the engine maintains viewHash, an XOR fold
// of a per-line hash over the view, updated at each line write by
// removing the old line's contribution and adding the new one. Every
// image is a frozen view and carries the hash its engine had, and an
// engine built from an image starts from that hash, so no pool is ever
// rehashed. (Snapshots that cost O(1) rather than O(pool) come from the
// copy-on-write page table, medium.go.)
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
// ContentHash(img.Bytes()) == img.Hash(). It is O(len(data)) and is the
// reference the rolling hash is tested against; images carry their hash
// already.
func ContentHash(data []byte) uint64 {
	var h uint64
	n := len(data) &^ (CacheLineSize - 1)
	for base := 0; base < n; base += CacheLineSize {
		h ^= lineContrib(uint64(base), data[base:base+CacheLineSize])
	}
	// Fold a trailing partial line zero-padded to line size. Engine
	// pools are always line-aligned (withDefaults rounds up), but a
	// caller's buffer need not be; ignoring the tail would let two
	// buffers differing only there collide, and a hash collision is a
	// verdict-cache correctness issue, not just a quality issue.
	if rem := len(data) - n; rem > 0 {
		var tail [CacheLineSize]byte
		copy(tail[:], data[n:])
		h ^= lineContrib(uint64(n), tail[:])
	}
	return h
}

// PrefixImageHash returns the content hash of the image PrefixImage
// would build: the rolling hash of the view, in O(1). A failure point's
// phase-1 stamp is this hash at the leaf's counter.
func (e *Engine) PrefixImageHash() uint64 { return e.viewHash }
