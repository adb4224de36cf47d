package pmem

import "encoding/binary"

// Content hashing on demand.
//
// Crash-image deduplication (Vinter- and Jaaru-style) needs a content
// identity for an image that never requires hashing the full pool. The
// hash of a pool is an XOR fold of a per-line hash over its lines, so a
// change to one line changes the fold by that line's old contribution
// XOR its new one. The engine pays for it only when asked: its stores
// hash nothing. It keeps the page table its view had at the last fold,
// frozen then, and that table's hash; PrefixImageHash folds the
// difference between that table and the view's current one and freezes
// the view. Pages the two tables share by pointer cannot differ (a page
// reachable from a frozen table is never written, medium.go), so a fold
// visits only the chunks and pages the medium copied or allocated since
// the last fold, and rehashes only the lines whose bytes differ: it
// costs O(pages written since the last fold), paid by the one reader,
// the failure-point tree builder stamping a new leaf. An image, and an
// engine built from one, hash their table from scratch when asked.
//
// An all-zero line contributes 0 to the fold, so a zeroed pool hashes
// to 0 and a fresh engine's last fold is the empty table. XOR is
// order-insensitive and self-inverse, which makes the per-line update
// O(1); each line's hash is salted with its base address, so permuting
// content between lines changes the fold.

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
// engine computes on demand: for any image,
// ContentHash(img.Bytes()) == img.Hash(). It is O(len(data)) and is the
// reference the on-demand hash is tested against.
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

// foldHash returns the content hash of the table cur, given h, the
// content hash of the table old. A nil old is the all-zero pool, so
// foldHash(0, nil, cur) hashes cur from scratch. Chunks and pages cur
// shares with old by pointer are skipped, and of the rest only the
// lines whose bytes differ are rehashed.
func foldHash(h uint64, old, cur []*chunk) uint64 {
	for ci, c := range cur {
		var o *chunk
		if old != nil {
			o = old[ci]
		}
		if c == o {
			continue
		}
		for j := range chunkPages {
			var op, cp *page
			if o != nil {
				op = o.pages[j]
			}
			if c != nil {
				cp = c.pages[j]
			}
			if op != cp {
				h ^= pageDelta(uint64(ci<<chunkShift|j)<<pageShift, op, cp)
			}
		}
	}
	return h
}

// pageDelta returns the change to the fold from the lines that differ
// between old and cur, the contents of the page at base in two tables.
// A nil page reads as zeros.
func pageDelta(base uint64, old, cur *page) uint64 {
	var d uint64
	for off := 0; off < pageSize; off += CacheLineSize {
		ol, cl := pageLine(old, off), pageLine(cur, off)
		if *ol != *cl {
			d ^= lineContrib(base+uint64(off), ol[:]) ^ lineContrib(base+uint64(off), cl[:])
		}
	}
	return d
}

// pageLine returns the line at offset off of pg, or a zero line when pg
// is nil. It must not be written.
func pageLine(pg *page, off int) *[CacheLineSize]byte {
	if pg == nil {
		pg = &zeroPage
	}
	return (*[CacheLineSize]byte)(pg[off : off+CacheLineSize])
}

// PrefixImageHash returns the content hash of the image PrefixImage
// would build. It folds the pages written since the last fold into the
// hash of the table frozen then and freezes the view. A failure point's
// phase-1 stamp is this hash at the leaf's counter.
func (e *Engine) PrefixImageHash() uint64 {
	cur := e.view.freeze()
	if !sameTable(cur, e.hashed) {
		e.viewHash = foldHash(e.viewHash, e.hashed, cur)
		e.hashed = cur
	}
	return e.viewHash
}

// sameTable reports whether a and b are one top-level table: a medium
// copies its table on the first write after a freeze, so a frozen view
// whose table is still the one frozen at the last fold is unchanged
// since that fold.
func sameTable(a, b []*chunk) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}
