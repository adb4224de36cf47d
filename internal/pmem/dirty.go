package pmem

// lineSet is the engine's set of dirty lines: a two-level bitmap shaped
// like the page table (medium.go), one word per page, whose bit i is
// the page's line i. The words of a chunk are allocated at the first
// line marked in the chunk's 2 MiB region, so marking and testing a
// line cost two indexings and no hashing, and an engine that stores to
// few regions pays for few chunks.
type lineSet []*[chunkPages]uint64

// A page's lines fit one word: the constant overflows otherwise.
const _ = uint64(1) << (pageSize/CacheLineSize - 1)

// newLineSet returns an empty set over a pool of size bytes.
func newLineSet(size int) lineSet {
	pages := (size + pageSize - 1) >> pageShift
	return make(lineSet, (pages+chunkPages-1)>>chunkShift)
}

// lineBit returns the chunk, word and bit of the line holding addr.
func lineBit(addr uint64) (ci, wi, bit uint64) {
	pi := addr >> pageShift
	return pi >> chunkShift, pi & (chunkPages - 1), 1 << (addr / CacheLineSize % (pageSize / CacheLineSize))
}

// add marks the line holding addr.
func (s lineSet) add(addr uint64) {
	ci, wi, bit := lineBit(addr)
	w := s[ci]
	if w == nil {
		w = new([chunkPages]uint64)
		s[ci] = w
	}
	w[wi] |= bit
}

// remove clears the line holding addr.
func (s lineSet) remove(addr uint64) {
	ci, wi, bit := lineBit(addr)
	if w := s[ci]; w != nil {
		w[wi] &^= bit
	}
}

// has reports whether the line holding addr is marked.
func (s lineSet) has(addr uint64) bool {
	ci, wi, bit := lineBit(addr)
	w := s[ci]
	return w != nil && w[wi]&bit != 0
}

// clone returns a copy of s that shares no words with it.
func (s lineSet) clone() lineSet {
	c := make(lineSet, len(s))
	for ci, w := range s {
		if w != nil {
			cw := *w
			c[ci] = &cw
		}
	}
	return c
}

// bytes returns the size of the allocated words.
func (s lineSet) bytes() uint64 {
	var n uint64
	for _, w := range s {
		if w != nil {
			n += chunkPages * 8
		}
	}
	return n
}
