package pmem

import "slices"

// The copy-on-write medium.
//
// The engine's view and every image it freezes are a two-level table of
// fixed-size pages, not one flat pool-sized buffer: a top-level table of
// chunk pointers, each chunk holding chunkPages page pointers. A nil
// chunk or page reads as zeros, so a fresh engine costs one pointer per
// chunk rather than a zeroed pool. Snapshots share pages instead of
// copying bytes: freezing hands the current top-level table to an
// image, after which the medium copies that table on its next write,
// each chunk on the first write it makes into the chunk, and each page
// on the first write it makes to the page. Crash images, phase-1 leaf
// images, checkpoint restores, recovery engines and the strict crash
// states of package trace all rest on this one mechanism, so a
// per-injection step copies only the pages it writes plus one chunk
// (4 KiB) per 2 MiB region it writes into and one top-level pointer per
// 2 MiB of pool: at a 64 MiB pool the top level is 32 pointers, where a
// one-level table cost one pointer per 4 KiB page (128 KiB) and a flat
// medium the whole pool.
//
// The invariant that makes sharing safe: a chunk or page reachable from
// a frozen table is never mutated. A medium writes in place only the
// chunks and pages it allocated or copied itself since its table was
// last frozen (own bits); any other chunk or page may be shared with an
// image, a sibling engine or a checkpoint store, and is copied before
// the first write.

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	// chunkShift sets the pages per chunk: 512 pointers, one 4 KiB
	// second-level table per 2 MiB of pool.
	chunkShift = 9
	chunkPages = 1 << chunkShift
)

type page [pageSize]byte

// chunk is one second-level table.
type chunk struct {
	pages [chunkPages]*page
	// own has bit i set when pages[i] was allocated or copied by the
	// medium that owns this chunk. It is read only by that medium, and
	// never changes once the chunk is shared.
	own [chunkPages / 64]uint64
}

// zeroLine is the contents of every line of a nil page. It is read-only.
var zeroLine [CacheLineSize]byte

type medium struct {
	size   int
	chunks []*chunk
	// own has bit i set when chunks[i] was allocated or copied by this
	// medium since its table was last frozen, so it may be written in
	// place. It is stale while frozen.
	own []uint64
	// frozen reports that chunks may be shared: the next write copies
	// the top-level table and forgets every own bit first.
	frozen bool
}

// newMedium returns an all-zero medium of size bytes.
func newMedium(size int) medium {
	pages := (size + pageSize - 1) >> pageShift
	n := (pages + chunkPages - 1) >> chunkShift
	return medium{size: size, chunks: make([]*chunk, n), own: make([]uint64, (n+63)/64)}
}

// sharedMedium returns a medium over a frozen table. It owns no chunk,
// so every chunk and page it writes is copied first.
func sharedMedium(size int, chunks []*chunk) medium {
	return medium{size: size, chunks: chunks, frozen: true}
}

// line returns the contents of the line at base. The slice may alias a
// shared page and must not be written.
func (m *medium) line(base uint64) []byte {
	pi := base >> pageShift
	c := m.chunks[pi>>chunkShift]
	if c == nil {
		return zeroLine[:]
	}
	pg := c.pages[pi&(chunkPages-1)]
	if pg == nil {
		return zeroLine[:]
	}
	off := base & (pageSize - 1)
	return pg[off : off+CacheLineSize : off+CacheLineSize]
}

// writable returns the line at base for writing.
func (m *medium) writable(base uint64) []byte {
	off := base & (pageSize - 1)
	return m.writablePage(base)[off : off+CacheLineSize : off+CacheLineSize]
}

// writablePage returns the page holding addr for writing. It first
// copies the top-level table when it is frozen, then the chunk and the
// page when this medium does not own them.
func (m *medium) writablePage(addr uint64) *page {
	if m.frozen {
		m.chunks = slices.Clone(m.chunks)
		if m.own == nil {
			m.own = make([]uint64, (len(m.chunks)+63)/64)
		} else {
			clear(m.own)
		}
		m.frozen = false
	}
	pi := addr >> pageShift
	ci := pi >> chunkShift
	c := m.chunks[ci]
	if m.own[ci/64]&(1<<(ci%64)) == 0 {
		nc := new(chunk)
		if c != nil {
			nc.pages = c.pages
		}
		c = nc
		m.chunks[ci] = c
		m.own[ci/64] |= 1 << (ci % 64)
	}
	j := pi & (chunkPages - 1)
	if c.own[j/64]&(1<<(j%64)) == 0 {
		pg := new(page)
		if old := c.pages[j]; old != nil {
			*pg = *old
		}
		c.pages[j] = pg
		c.own[j/64] |= 1 << (j % 64)
	}
	return c.pages[j]
}

// freeze returns the current table for sharing. Neither the table nor
// any chunk or page in it is written again.
func (m *medium) freeze() []*chunk {
	m.frozen = true
	return m.chunks
}

// materialise copies the contents of a table into dst, which must be
// zeroed and hold the pool.
func materialise(dst []byte, chunks []*chunk) {
	for ci, c := range chunks {
		if c == nil {
			continue
		}
		for j, pg := range c.pages {
			if pg != nil {
				copy(dst[(ci<<chunkShift|j)<<pageShift:], pg[:])
			}
		}
	}
}
