// Package fpt implements Mumak's failure point tree (§4.1, Fig 2).
//
// Each node is an instruction address (a call-site program counter); each
// unique root-to-leaf path is the call stack of a unique failure point —
// a point in the execution considered prone to leaving PM inconsistent if
// the system crashed there. The tree deduplicates code paths: injecting
// one fault per leaf explores every unique path to a persistency
// instruction while skipping the equivalent post-failure states that
// repeated visits would generate.
//
// The tree is immutable by construction once Freeze is called: the
// builder inserts leaves during the single instrumented run, the
// campaign freezes the tree, and from then on structure and leaves never
// change, so any number of workers can share it without locks. An
// injection campaign consumes leaves strictly in LeavesByICount order,
// so its progress is one number: the length of the consumed prefix of
// that order. The tree itself carries no traversal state.
package fpt

import (
	"fmt"
	"sort"
	"strings"

	"mumak/internal/pmem"
	"mumak/internal/stack"
)

// Leaf is one unique failure point. Leaves are immutable once the tree
// is frozen; campaign progress is a prefix of LeavesByICount, never a
// mark on the leaf itself.
type Leaf struct {
	// ID numbers leaves in insertion order.
	ID int
	// Stack is the interned call stack of the failure point.
	Stack stack.ID
	// FirstICount is the engine instruction counter of the first
	// execution that reached this failure point. With a deterministic
	// target, re-running the workload and crashing at this counter
	// reproduces exactly this failure point (the instruction-counter
	// optimisation of §5).
	FirstICount uint64
	// ImageHash and ImageSize stamp the leaf with its prospective
	// crash-image identity: the engine's prefix-image hash
	// (pmem.Engine.PrefixImageHash) and pool size at the instant the
	// builder first reached this failure point. The engine crashes a
	// replay at FirstICount before that instruction's own mutation —
	// the same pre-mutation point at which the builder hook observed
	// the event — so crashing there materialises exactly this image,
	// and leaves sharing a stamp form one crash-image equivalence
	// class. ImageSize == 0 means unstamped
	// (the builder had no engine); a zero ImageHash is legitimate (a
	// still-zeroed pool), so the size carries the validity bit.
	ImageHash uint64
	ImageSize int
	// Image is that graceful-crash image itself, frozen by the builder
	// at the same instant when Builder.KeepImages is set (counter
	// mode): the state a replay crashed at FirstICount would hand to
	// recovery, so the campaign judges it without re-executing the
	// target. nil otherwise.
	Image *pmem.Image
}

type node struct {
	pc       uintptr
	children map[uintptr]*node
	leaf     *Leaf
}

// Tree is the failure point tree. The zero value is not usable; call New.
type Tree struct {
	root   *node
	leaves []*Leaf
	// byStack indexes the leaves by call stack. The stack table interns
	// each PC sequence to one ID, so this is the path walk's answer, and
	// a repeat occurrence finds its leaf without the walk.
	byStack map[stack.ID]*Leaf
	// stacks resolves interned IDs to PCs for insertion and rendering.
	stacks *stack.Table
	// nodes counts tree nodes, a proxy for the pre-allocated memory of
	// the Pin implementation.
	nodes int
	// frozen marks the end of construction: further Inserts panic, and
	// every accessor is safe for concurrent use.
	frozen bool
}

// New returns an empty tree backed by the given stack table.
func New(stacks *stack.Table) *Tree {
	return &Tree{root: &node{children: make(map[uintptr]*node)}, byStack: make(map[stack.ID]*Leaf), stacks: stacks}
}

// Stacks returns the backing stack table.
func (t *Tree) Stacks() *stack.Table { return t.stacks }

// Freeze ends construction: any later Insert panics. A frozen tree is
// immutable and therefore safe to share across any number of goroutines
// without synchronisation. Freeze is idempotent.
func (t *Tree) Freeze() { t.frozen = true }

// Frozen reports whether construction has ended.
func (t *Tree) Frozen() bool { return t.frozen }

// Insert adds the call stack identified by id, reached first at
// instruction counter icount, and returns the leaf plus whether it was
// newly created. Stacks are inserted outermost-frame-first, so shared
// prefixes (common callers) share tree nodes, exactly as in Fig 2.
// Insert panics on a frozen tree.
func (t *Tree) Insert(id stack.ID, icount uint64) (*Leaf, bool) {
	if t.frozen {
		panic("fpt: Insert on a frozen tree")
	}
	if leaf := t.byStack[id]; leaf != nil {
		return leaf, false
	}
	pcs := t.stacks.PCs(id)
	if len(pcs) == 0 {
		return nil, false
	}
	cur := t.root
	// pcs is innermost-first; walk from the outermost frame down.
	for i := len(pcs) - 1; i >= 0; i-- {
		pc := pcs[i]
		next := cur.children[pc]
		if next == nil {
			next = &node{pc: pc, children: make(map[uintptr]*node)}
			cur.children[pc] = next
			t.nodes++
		}
		cur = next
	}
	if cur.leaf != nil {
		panic("fpt: two stack IDs for one PC sequence")
	}
	leaf := &Leaf{ID: len(t.leaves), Stack: id, FirstICount: icount}
	cur.leaf = leaf
	t.byStack[id] = leaf
	t.leaves = append(t.leaves, leaf)
	return leaf, true
}

// Lookup returns the leaf for the call stack, or nil.
func (t *Tree) Lookup(id stack.ID) *Leaf { return t.byStack[id] }

// Leaves returns all leaves in insertion order. The slice is shared; do
// not modify it.
func (t *Tree) Leaves() []*Leaf { return t.leaves }

// LeavesByICount returns a fresh snapshot of all leaves sorted by first
// occurrence, the order injection campaigns proceed in. The returned
// slice is the caller's to keep.
func (t *Tree) LeavesByICount() []*Leaf {
	out := make([]*Leaf, len(t.leaves))
	copy(out, t.leaves)
	sort.Slice(out, func(i, j int) bool { return out[i].FirstICount < out[j].FirstICount })
	return out
}

// Len returns the number of unique failure points.
func (t *Tree) Len() int { return len(t.leaves) }

// Nodes returns the number of internal tree nodes.
func (t *Tree) Nodes() int { return t.nodes }

// String renders the tree in the style of Fig 2: one line per node,
// indented by depth, leaves annotated with their ID and first counter.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		kids := make([]*node, 0, len(n.children))
		for _, c := range n.children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].pc < kids[j].pc })
		for _, c := range kids {
			fmt.Fprintf(&sb, "%s%s\n", strings.Repeat("  ", depth), t.frameLabel(c.pc))
			if c.leaf != nil {
				fmt.Fprintf(&sb, "%s* failure point #%d (first at instruction %d)\n",
					strings.Repeat("  ", depth+1), c.leaf.ID, c.leaf.FirstICount)
			}
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return sb.String()
}

func (t *Tree) frameLabel(pc uintptr) string {
	frames := t.stacks.Frames(t.stacks.Intern([]uintptr{pc}))
	if len(frames) == 0 || frames[0].Function == "" {
		return fmt.Sprintf("0x%x", pc)
	}
	f := frames[0]
	return fmt.Sprintf("%s at %s:%d", shortFunc(f.Function), shortFile(f.File), f.Line)
}

func shortFunc(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
