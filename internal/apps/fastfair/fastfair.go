// Package fastfair reimplements FAST&FAIR (Hwang et al., FAST'18): a
// persistent B+-tree that tolerates transient inconsistency instead of
// logging. FAST shifts node entries with 8-byte atomic stores, persisting
// each step, so a crash leaves only sorted arrays with adjacent
// duplicates that readers (and recovery) resolve by taking the rightmost
// copy. FAIR splits link nodes through sibling pointers before the
// parent learns about them, so lookups hop right when a key exceeds a
// node's range.
//
// Keys are stored as key+1 so the zero key marks an empty slot; the
// element count lives in the root object under the insert-then-count
// discipline recovery knows how to repair.
//
// Bug knobs: fastfair/shift-lost-key (fault injection),
// fastfair/shift-single-fence, fastfair/sibling-single-fence and
// fastfair/split-fused-fence (hidden from program-order prefixes), and
// fastfair/pf-01..pf-14 (trace analysis).
package fastfair

import (
	"errors"
	"fmt"

	"mumak/internal/apps"
	"mumak/internal/apps/perfbug"
	"mumak/internal/bugs"
	"mumak/internal/harness"
	"mumak/internal/pmdk"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// Seeded bug identifiers.
const (
	// BugShiftLostKey shifts left-to-right, overwriting entries before
	// copying them; an injected crash mid-shift loses keys.
	BugShiftLostKey bugs.ID = "fastfair/shift-lost-key"
	// BugShiftSingleFence fuses the per-step shift persists into one
	// trailing fence (hidden from prefixes).
	BugShiftSingleFence bugs.ID = "fastfair/shift-single-fence"
	// BugSiblingSingleFence fuses new-node population and the sibling
	// link under one fence (hidden from prefixes).
	BugSiblingSingleFence bugs.ID = "fastfair/sibling-single-fence"
	// BugSplitFusedFence fuses the sibling link and the source
	// truncation under one fence (hidden from prefixes).
	BugSplitFusedFence bugs.ID = "fastfair/split-fused-fence"
)

const (
	maxKeys = 16
	half    = maxKeys / 2

	nodeLeaf    = 0x00 // u64: 1 = leaf
	nodeSibling = 0x08 // u64: right sibling
	nodeHigh    = 0x10 // u64: high key (exclusive upper bound), 0 = +inf
	nodeKeys    = 0x18 // 16 * u64, key+1 encoding, 0 = empty
	nodeVals    = 0x98 // 17 * u64: values (leaf) or children (internal)
	nodeSize    = 0x120

	rootTree  = 0x00
	rootCount = 0x08
	rootStats = 0x40 // own cache line: never flushed by design
	rootSize  = 0x80
)

// App is the FAST&FAIR tree.
type App struct{ cfg apps.Config }

// New constructs the application.
func New(cfg apps.Config) *App { return &App{cfg: cfg} }

func init() {
	apps.Register("fastfair", func(cfg apps.Config) harness.Application { return New(cfg) })
}

// Name implements harness.Application.
func (a *App) Name() string { return "fastfair" }

// PoolSize implements harness.Application.
func (a *App) PoolSize() int {
	if a.cfg.PoolSize != 0 {
		return a.cfg.PoolSize
	}
	return 64 << 20
}

// Setup implements harness.Application.
func (a *App) Setup(e *pmem.Engine) error {
	p, err := pmdk.Create(e, a.cfg.Ver, rootSize)
	if err != nil {
		return err
	}
	t := &tree{p: p, cfg: a.cfg}
	leaf, err := t.newNode(true)
	if err != nil {
		return err
	}
	e.Store64(p.Root()+rootTree, leaf)
	e.Store64(p.Root()+rootCount, 0)
	p.Persist(p.Root(), 16)
	return nil
}

// Open implements harness.KVApplication.
func (a *App) Open(e *pmem.Engine) (harness.KV, error) {
	p, err := pmdk.Open(e, a.cfg.Ver)
	if err != nil {
		return nil, err
	}
	return &tree{p: p, cfg: a.cfg}, nil
}

// Run implements harness.Application.
func (a *App) Run(e *pmem.Engine, w workload.Workload) error {
	kv, err := a.Open(e)
	if err != nil {
		return err
	}
	return harness.RunKV(kv, w)
}

// Recover implements harness.Application.
func (a *App) Recover(e *pmem.Engine) error {
	p, err := pmdk.Open(e, a.cfg.Ver)
	if errors.Is(err, pmdk.ErrNeverCreated) {
		return nil
	}
	if err != nil {
		return err
	}
	t := &tree{p: p, cfg: a.cfg}
	return t.validate()
}

type tree struct {
	p   *pmdk.Pool
	cfg apps.Config
}

func (t *tree) e() *pmem.Engine { return t.p.Engine() }
func (t *tree) root() uint64    { return t.p.Root() }

func (t *tree) newNode(leaf bool) (uint64, error) {
	off, err := t.p.AllocZeroed(nodeSize)
	if err != nil {
		return 0, err
	}
	if leaf {
		t.e().Store64(off+nodeLeaf, 1)
	}
	t.p.PersistDirty(off, nodeSize)
	return off, nil
}

func (t *tree) isLeaf(n uint64) bool       { return t.e().Load64(n+nodeLeaf) == 1 }
func (t *tree) sibling(n uint64) uint64    { return t.e().Load64(n + nodeSibling) }
func (t *tree) high(n uint64) uint64       { return t.e().Load64(n + nodeHigh) }
func (t *tree) key(n uint64, i int) uint64 { return t.e().Load64(n + nodeKeys + 8*uint64(i)) }
func (t *tree) val(n uint64, i int) uint64 { return t.e().Load64(n + nodeVals + 8*uint64(i)) }

func (t *tree) setKey(n uint64, i int, v uint64) { t.e().Store64(n+nodeKeys+8*uint64(i), v) }
func (t *tree) setVal(n uint64, i int, v uint64) { t.e().Store64(n+nodeVals+8*uint64(i), v) }

func (t *tree) persistKey(n uint64, i int) { t.p.Persist(n+nodeKeys+8*uint64(i), 8) }
func (t *tree) persistVal(n uint64, i int) { t.p.Persist(n+nodeVals+8*uint64(i), 8) }

// occupancy counts the dense prefix of non-empty key slots.
func (t *tree) occupancy(n uint64) int {
	for i := 0; i < maxKeys; i++ {
		if t.key(n, i) == 0 {
			return i
		}
	}
	return maxKeys
}

// findRight locates key (already +1 encoded) taking the rightmost
// duplicate; returns the index or -1.
func (t *tree) findRight(n uint64, ikey uint64) int {
	idx := -1
	for i := 0; i < maxKeys; i++ {
		k := t.key(n, i)
		if k == 0 || k > ikey {
			break
		}
		if k == ikey {
			idx = i
		}
	}
	return idx
}

// descend walks to the node responsible for ikey, hopping right via
// sibling pointers whenever the key is at or above a node's high key —
// the B-link-style FAIR rule that keeps the tree navigable while a split
// is only published through the sibling chain. The path of internal
// nodes is returned for splits.
func (t *tree) descend(ikey uint64) (leaf uint64, path []uint64) {
	n := t.e().Load64(t.root() + rootTree)
	for {
		for {
			h := t.high(n)
			sib := t.sibling(n)
			if h != 0 && ikey >= h && sib != 0 {
				n = sib
				continue
			}
			break
		}
		if t.isLeaf(n) {
			return n, path
		}
		path = append(path, n)
		occ := t.occupancy(n)
		i := 0
		for i < occ && ikey >= t.key(n, i) {
			i++
		}
		n = t.val(n, i)
	}
}

// Get implements harness.KV.
func (t *tree) Get(key uint64) (uint64, bool, error) {
	perfbug.ApplyN(t.e(), t.cfg.Bugs, "fastfair", 4, 7, 0, t.root()+rootStats)
	ikey := key + 1
	leaf, _ := t.descend(ikey)
	if i := t.findRight(leaf, ikey); i >= 0 {
		return t.val(leaf, i), true, nil
	}
	return 0, false, nil
}

// shiftRight opens slot pos in node n (occupancy occ) using the FAST
// protocol: value then key per step, each persisted, right-to-left.
func (t *tree) shiftRight(n uint64, pos, occ int) {
	fused := t.cfg.Bugs.Has(BugShiftSingleFence)
	if t.cfg.Bugs.Has(BugShiftLostKey) {
		// BUG: left-to-right copying overwrites entries before they
		// are saved; a crash mid-way has already lost them.
		for j := pos; j < occ; j++ {
			t.setVal(n, j+1, t.val(n, j))
			t.persistVal(n, j+1)
			t.setKey(n, j+1, t.key(n, j))
			t.persistKey(n, j+1)
		}
		return
	}
	for j := occ - 1; j >= pos; j-- {
		t.setVal(n, j+1, t.val(n, j))
		if !fused {
			t.persistVal(n, j+1)
		}
		t.setKey(n, j+1, t.key(n, j))
		if !fused {
			t.persistKey(n, j+1)
		}
	}
	if fused {
		// BUG (hidden from prefixes): one fence covers the whole
		// shift; hardware may persist a later step before an earlier
		// one, losing an entry.
		t.p.Persist(n+nodeKeys, (maxKeys+maxKeys+1)*8)
	}
}

// insertAt writes an entry into slot pos (value before key, persisted).
func (t *tree) insertAt(n uint64, pos int, ikey, val uint64) {
	t.setVal(n, pos, val)
	t.persistVal(n, pos)
	t.setKey(n, pos, ikey)
	t.persistKey(n, pos)
}

// Put implements harness.KV.
func (t *tree) Put(key, val uint64) error {
	perfbug.ApplyN(t.e(), t.cfg.Bugs, "fastfair", 1, 3, 0, t.root()+rootStats)
	ikey := key + 1
	for {
		leaf, path := t.descend(ikey)
		if i := t.findRight(leaf, ikey); i >= 0 {
			// Overwrite: one atomic persisted store.
			t.setVal(leaf, i, val)
			t.persistVal(leaf, i)
			return nil
		}
		occ := t.occupancy(leaf)
		if occ < maxKeys {
			pos := 0
			for pos < occ && t.key(leaf, pos) < ikey {
				pos++
			}
			t.shiftRight(leaf, pos, occ)
			t.insertAt(leaf, pos, ikey, val)
			cnt := t.root() + rootCount
			t.e().Store64(cnt, t.e().Load64(cnt)+1)
			t.p.Persist(cnt, 8)
			return nil
		}
		if err := t.split(leaf, path, 0); err != nil {
			return err
		}
	}
}

// split divides full node n, level levels above the leaves, B-link
// style: the new right node is fully built (including its high key),
// published through the sibling chain, then n's high key and truncation
// shrink its range, and finally the parent learns the separator.
func (t *tree) split(n uint64, path []uint64, level int) error {
	perfbug.ApplyN(t.e(), t.cfg.Bugs, "fastfair", 11, 14, 0, t.root()+rootStats)
	e := t.e()
	right, err := t.newNode(t.isLeaf(n))
	if err != nil {
		return err
	}
	sepKey := t.key(n, half) // first key of the upper half / moved separator

	if t.isLeaf(n) {
		for j := half; j < maxKeys; j++ {
			t.setKey(right, j-half, t.key(n, j))
			t.setVal(right, j-half, t.val(n, j))
		}
	} else {
		// The separator moves up: right keeps keys above it and the
		// children from half+1 onwards.
		for j := half + 1; j < maxKeys; j++ {
			t.setKey(right, j-half-1, t.key(n, j))
		}
		for j := half + 1; j <= maxKeys; j++ {
			t.setVal(right, j-half-1, t.val(n, j))
		}
	}
	e.Store64(right+nodeSibling, t.sibling(n))
	e.Store64(right+nodeHigh, t.high(n))

	fusedSib := t.cfg.Bugs.Has(BugSiblingSingleFence)
	fusedTrunc := t.cfg.Bugs.Has(BugSplitFusedFence)
	if fusedSib {
		// BUG (hidden from prefixes): the new node's contents and the
		// sibling link that publishes it share one fence.
		t.p.FlushDirty(right, nodeSize)
		e.Store64(n+nodeSibling, right)
		t.p.Flush(n+nodeSibling, 8)
		t.p.Drain()
	} else {
		t.p.PersistDirty(right, nodeSize)
		e.Store64(n+nodeSibling, right)
		t.p.Persist(n+nodeSibling, 8)
	}
	// Shrink n's range: keys at or above sepKey now live to the right.
	e.Store64(n+nodeHigh, sepKey)
	t.p.Persist(n+nodeHigh, 8)

	// Truncate the source from the top down so every intermediate
	// state keeps a dense sorted prefix.
	for j := maxKeys - 1; j >= half; j-- {
		t.setKey(n, j, 0)
		if !fusedTrunc {
			t.persistKey(n, j)
		} else {
			t.p.Flush(n+nodeKeys+8*uint64(j), 8)
		}
	}
	if fusedTrunc {
		// BUG (hidden from prefixes): the truncation races the high
		// key and sibling publication under the same fence on real
		// hardware.
		t.p.Drain()
	}

	// Insert the separator into the parent (or grow a new root).
	if len(path) == 0 {
		newRoot, err := t.newNode(false)
		if err != nil {
			return err
		}
		t.setKey(newRoot, 0, sepKey)
		t.setVal(newRoot, 0, n)
		t.setVal(newRoot, 1, right)
		t.p.PersistDirty(newRoot, nodeSize)
		e.Store64(t.root()+rootTree, newRoot)
		t.p.Persist(t.root()+rootTree, 8)
		return nil
	}
	parent := path[len(path)-1]
	if t.occupancy(parent) == maxKeys {
		// Split the parent first; the sibling chain keeps the tree
		// navigable, and the fresh descent finds the new parent: the
		// node it passes one level above n. The descent's path ends at
		// the leaves' parent, so the levels between n and the leaves
		// are skipped.
		if err := t.split(parent, path[:len(path)-1], level+1); err != nil {
			return err
		}
		_, npath := t.descend(sepKey)
		if len(npath) <= level {
			return fmt.Errorf("fastfair: lost parent during cascading split")
		}
		parent = npath[len(npath)-1-level]
	}
	occ := t.occupancy(parent)
	pos := 0
	for pos < occ && t.key(parent, pos) < sepKey {
		pos++
	}
	// Shift keys and children right of the insertion point (FAST).
	for j := occ - 1; j >= pos; j-- {
		t.setVal(parent, j+2, t.val(parent, j+1))
		t.persistVal(parent, j+2)
		t.setKey(parent, j+1, t.key(parent, j))
		t.persistKey(parent, j+1)
	}
	t.setVal(parent, pos+1, right)
	t.persistVal(parent, pos+1)
	t.setKey(parent, pos, sepKey)
	t.persistKey(parent, pos)
	return nil
}

// Delete implements harness.KV: count-first, then a left shift that
// keeps intermediate states sorted-with-duplicates.
func (t *tree) Delete(key uint64) error {
	perfbug.ApplyN(t.e(), t.cfg.Bugs, "fastfair", 8, 10, 0, t.root()+rootStats)
	ikey := key + 1
	leaf, _ := t.descend(ikey)
	pos := t.findRight(leaf, ikey)
	if pos < 0 {
		return nil
	}
	cnt := t.root() + rootCount
	t.e().Store64(cnt, t.e().Load64(cnt)-1)
	t.p.Persist(cnt, 8)
	occ := t.occupancy(leaf)
	for j := pos; j < occ-1; j++ {
		t.setVal(leaf, j, t.val(leaf, j+1))
		t.persistVal(leaf, j)
		t.setKey(leaf, j, t.key(leaf, j+1))
		t.persistKey(leaf, j)
	}
	t.setKey(leaf, occ-1, 0)
	t.persistKey(leaf, occ-1)
	return nil
}

// validate is the recovery consistency check: every node is in bounds,
// keys form dense sorted prefixes, leaves respect their high keys, the
// distinct key set collected over the sibling chain reconciles with the
// persisted counter (duplicates from interrupted shifts, displacements
// or splits are tolerated, as the FAST/FAIR protocols guarantee), and
// every chained key is reachable by a hopping descent.
func (t *tree) validate() error {
	e := t.e()
	rootNode := e.Load64(t.root() + rootTree)
	count := e.Load64(t.root() + rootCount)
	if rootNode == 0 {
		if count != 0 {
			return fmt.Errorf("fastfair: no tree but count=%d", count)
		}
		return nil
	}
	size := uint64(e.Size())
	checkNode := func(n uint64) error {
		if n%16 != 0 || n+nodeSize > size {
			return fmt.Errorf("fastfair: node 0x%x out of bounds", n)
		}
		prev := uint64(0)
		hole := false
		h := t.high(n)
		for i := 0; i < maxKeys; i++ {
			k := t.key(n, i)
			if k == 0 {
				hole = true
				continue
			}
			if hole {
				return fmt.Errorf("fastfair: node 0x%x has a hole before slot %d", n, i)
			}
			if k < prev {
				return fmt.Errorf("fastfair: node 0x%x unsorted at slot %d", n, i)
			}
			if h != 0 && k >= h && t.sibling(n) == 0 {
				return fmt.Errorf("fastfair: node 0x%x holds key beyond its high key with no sibling", n)
			}
			prev = k
		}
		return nil
	}
	// Find the leftmost leaf, checking internal nodes on the way.
	n := rootNode
	steps := 0
	for {
		if err := checkNode(n); err != nil {
			return err
		}
		if t.isLeaf(n) {
			break
		}
		if steps++; steps > 64 {
			return fmt.Errorf("fastfair: descent too deep (cycle?)")
		}
		n = t.val(n, 0)
	}
	// Walk the leaf chain collecting the distinct key set.
	keys := map[uint64]bool{}
	hops := 0
	for n != 0 {
		if err := checkNode(n); err != nil {
			return err
		}
		if hops++; hops > 1<<20 {
			return fmt.Errorf("fastfair: leaf chain cycle")
		}
		for i := 0; i < maxKeys; i++ {
			if k := t.key(n, i); k != 0 {
				keys[k] = true
			}
		}
		n = t.sibling(n)
	}
	// Every chained key must be reachable by a hopping descent.
	for k := range keys {
		leaf, _ := t.descend(k)
		if t.findRight(leaf, k) < 0 {
			return fmt.Errorf("fastfair: key %d in the chain but unreachable by descent", k-1)
		}
	}
	distinct := uint64(len(keys))
	switch {
	case distinct == count:
		return nil
	case distinct == count+1:
		e.Store64(t.root()+rootCount, distinct)
		t.p.Persist(t.root()+rootCount, 8)
		return nil
	default:
		return fmt.Errorf("fastfair: count=%d but %d distinct keys reachable", count, distinct)
	}
}

var _ harness.KVApplication = (*App)(nil)
