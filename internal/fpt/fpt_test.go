package fpt_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	. "mumak/internal/fpt"
	"mumak/internal/pmem"
	"mumak/internal/stack"
)

func TestInsertDeduplicatesPaths(t *testing.T) {
	st := stack.NewTable()
	tree := New(st)
	a := st.Intern([]uintptr{10, 20, 30}) // innermost-first
	b := st.Intern([]uintptr{11, 20, 30}) // same callers, different leaf
	l1, added1 := tree.Insert(a, 5)
	l2, added2 := tree.Insert(a, 9)
	l3, added3 := tree.Insert(b, 12)
	if !added1 || added2 || !added3 {
		t.Fatalf("added flags: %v %v %v", added1, added2, added3)
	}
	if l1 != l2 {
		t.Fatal("same stack produced two leaves")
	}
	if l1.FirstICount != 5 {
		t.Fatalf("first icount %d, want 5 (first occurrence)", l1.FirstICount)
	}
	if l3.ID == l1.ID {
		t.Fatal("distinct stacks share a leaf ID")
	}
	if tree.Len() != 2 {
		t.Fatalf("tree has %d leaves, want 2", tree.Len())
	}
	// Shared caller prefix 30->20 plus two leaf nodes = 4 nodes.
	if tree.Nodes() != 4 {
		t.Fatalf("tree has %d nodes, want 4 (shared prefix)", tree.Nodes())
	}
}

func TestLookup(t *testing.T) {
	st := stack.NewTable()
	tree := New(st)
	id := st.Intern([]uintptr{1, 2, 3})
	leaf, _ := tree.Insert(id, 1)
	if got := tree.Lookup(id); got != leaf {
		t.Fatal("lookup did not find inserted stack")
	}
	other := st.Intern([]uintptr{9, 2, 3})
	if got := tree.Lookup(other); got != nil {
		t.Fatal("lookup found a never-inserted stack")
	}
	// A strict prefix of an inserted path is not a failure point.
	prefix := st.Intern([]uintptr{2, 3})
	if got := tree.Lookup(prefix); got != nil {
		t.Fatal("lookup matched an interior node")
	}
}

func TestLeavesByICountOrder(t *testing.T) {
	st := stack.NewTable()
	tree := New(st)
	la, _ := tree.Insert(st.Intern([]uintptr{1}), 50)
	lb, _ := tree.Insert(st.Intern([]uintptr{2}), 10)
	lc, _ := tree.Insert(st.Intern([]uintptr{3}), 30)
	tree.Freeze()
	got := tree.LeavesByICount()
	if len(got) != 3 || got[0] != lb || got[1] != lc || got[2] != la {
		t.Fatalf("icount order wrong: %+v", got)
	}
}

func TestFrozenTreeRejectsInsert(t *testing.T) {
	st := stack.NewTable()
	tree := New(st)
	tree.Insert(st.Intern([]uintptr{1}), 1)
	tree.Freeze()
	if !tree.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert on a frozen tree did not panic")
		}
	}()
	tree.Insert(st.Intern([]uintptr{2}), 2)
}

func TestPropertyInsertLookupRoundTrip(t *testing.T) {
	st := stack.NewTable()
	tree := New(st)
	f := func(raw [][]uint16) bool {
		ids := make([]stack.ID, 0, len(raw))
		for _, r := range raw {
			if len(r) == 0 {
				continue
			}
			pcs := make([]uintptr, len(r))
			for i, v := range r {
				pcs[i] = uintptr(v) + 1
			}
			ids = append(ids, st.Intern(pcs))
		}
		leaves := map[stack.ID]*Leaf{}
		for i, id := range ids {
			l, _ := tree.Insert(id, uint64(i+1))
			leaves[id] = l
		}
		for id, want := range leaves {
			if tree.Lookup(id) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// pmApp is a tiny PM program with two distinct code paths reaching a
// persistency instruction, mirroring the sample program of Fig 2.
type pmApp struct{ e *pmem.Engine }

//go:noinline
func (a *pmApp) persist(addr uint64) {
	a.e.CLWB(addr)
	a.e.SFence()
}

//go:noinline
func (a *pmApp) mainPath() {
	a.e.Store64(0, 1)
	a.e.Store64(8, 2) // second store call site: extra store-granularity path
	a.persist(0)
}

//go:noinline
func (a *pmApp) loopPath() {
	for i := 0; i < 3; i++ {
		a.e.Store64(64, uint64(i))
		a.persist(64)
	}
}

func buildTree(t *testing.T, g Granularity) (*Tree, *pmem.Engine) {
	t.Helper()
	st := stack.NewTable()
	capture := pmem.CapturePersistency
	if g == GranStore {
		capture = pmem.CaptureStores
	}
	e := pmem.NewEngine(pmem.Options{PoolSize: 4096, Capture: capture, Stacks: st})
	tree := New(st)
	e.AttachHook(NewBuilder(tree, g))
	app := &pmApp{e: e}
	app.mainPath()
	app.loopPath()
	return tree, e
}

func TestBuilderFindsUniquePaths(t *testing.T) {
	tree, _ := buildTree(t, GranPersistency)
	// Two unique code paths reach the flush in persist (via mainPath
	// and via loopPath); the fences carry no store since the preceding
	// flush, so the store-gating suppresses them. The loop's three
	// iterations share one path.
	if tree.Len() != 2 {
		t.Fatalf("tree has %d failure points, want 2:\n%s", tree.Len(), tree)
	}
	for _, l := range tree.Leaves() {
		if l.FirstICount == 0 {
			t.Error("leaf missing first instruction counter")
		}
	}
}

// TestBuilderHandsOverEachLeaf: OnLeaf gets every new leaf exactly
// once, in FirstICount order, already stamped and, with KeepImages,
// carrying the image that a later write to the engine leaves unchanged.
func TestBuilderHandsOverEachLeaf(t *testing.T) {
	st := stack.NewTable()
	e := pmem.NewEngine(pmem.Options{PoolSize: 4096, Capture: pmem.CapturePersistency, Stacks: st})
	tree := New(st)
	b := NewBuilder(tree, GranPersistency)
	b.KeepImages = true
	var got []*Leaf
	var hashes []uint64
	b.OnLeaf = func(l *Leaf) {
		if l.ImageSize == 0 || l.Image == nil {
			t.Errorf("leaf %d handed over unstamped or without its image", l.ID)
			return
		}
		got = append(got, l)
		hashes = append(hashes, l.Image.Hash())
	}
	e.AttachHook(b)
	app := &pmApp{e: e}
	app.mainPath()
	app.loopPath()
	if len(got) != tree.Len() || tree.Len() != 2 {
		t.Fatalf("handed over %d leaves of %d, want 2", len(got), tree.Len())
	}
	for i, l := range got {
		if l != tree.LeavesByICount()[i] {
			t.Errorf("hand-off %d is leaf %d, want leaf %d in FirstICount order", i, l.ID, tree.LeavesByICount()[i].ID)
		}
		if h := l.Image.Hash(); h != hashes[i] || h != l.ImageHash {
			t.Errorf("leaf %d's image changed after the hand-off: hash %#x, was %#x, stamp %#x", l.ID, h, hashes[i], l.ImageHash)
		}
	}
}

func TestBuilderStoreGranularity(t *testing.T) {
	ptree, _ := buildTree(t, GranPersistency)
	stree, _ := buildTree(t, GranStore)
	if stree.Len() <= ptree.Len() {
		t.Fatalf("store granularity found %d points, persistency %d; want more",
			stree.Len(), ptree.Len())
	}
}

func TestBuilderStoreGating(t *testing.T) {
	st := stack.NewTable()
	e := pmem.NewEngine(pmem.Options{PoolSize: 4096, Capture: pmem.CapturePersistency, Stacks: st})
	tree := New(st)
	b := NewBuilder(tree, GranPersistency)
	e.AttachHook(b)
	e.Store64(0, 1)
	e.CLWB(0)  // failure point (store happened)
	e.SFence() // gated out (no store since the flush)
	e.SFence() // gated out
	if tree.Len() != 1 {
		t.Fatalf("gating failed: %d failure points, want 1\n%s", tree.Len(), tree)
	}
}

func TestTreeStringRendersFig2Style(t *testing.T) {
	tree, _ := buildTree(t, GranPersistency)
	s := tree.String()
	if !strings.Contains(s, "failure point #") {
		t.Errorf("rendering lacks failure point markers:\n%s", s)
	}
	if !strings.Contains(s, "persist") {
		t.Errorf("rendering lacks function names:\n%s", s)
	}
}

// crashAt is a hook that crashes the engine at one instruction counter,
// before that instruction's own change.
type crashAt uint64

func (c crashAt) OnEvent(ev *pmem.Event) {
	if ev.ICount == uint64(c) {
		panic(&pmem.CrashSignal{ICount: ev.ICount, Reason: "failure point"})
	}
}

// WantsStack implements pmem.StackDemand: the hook needs no stacks.
func (crashAt) WantsStack(*pmem.Event) bool { return false }

// A counter-mode injection replays nothing: the image the builder
// freezes at a leaf's first occurrence, and the stamp it takes of it,
// are the crash state a re-execution crashed at that counter reaches.
func TestInjectorCounterMode(t *testing.T) {
	st := stack.NewTable()
	e := pmem.NewEngine(pmem.Options{PoolSize: 4096, Capture: pmem.CapturePersistency, Stacks: st})
	tree := New(st)
	b := NewBuilder(tree, GranPersistency)
	b.KeepImages = true
	e.AttachHook(b)
	run := func(app *pmApp) {
		app.mainPath()
		app.loopPath()
	}
	run(&pmApp{e: e})

	for _, leaf := range tree.Leaves() {
		replay := pmem.NewEngine(pmem.Options{PoolSize: 4096})
		replay.AttachHook(crashAt(leaf.FirstICount))
		var sig *pmem.CrashSignal
		func() {
			defer func() {
				if r := recover(); r != nil {
					sig = r.(*pmem.CrashSignal)
				}
			}()
			run(&pmApp{e: replay})
		}()
		if sig == nil || sig.ICount != leaf.FirstICount {
			t.Fatalf("leaf %d: re-execution crashed with %+v, want a crash at %d", leaf.ID, sig, leaf.FirstICount)
		}
		want := replay.PrefixImage()
		if leaf.Image == nil || leaf.Image.Hash() != want.Hash() || !bytes.Equal(leaf.Image.Bytes(), want.Bytes()) {
			t.Fatalf("leaf %d: the builder's image differs from the re-execution's crash state", leaf.ID)
		}
		if leaf.ImageHash != want.Hash() || leaf.ImageSize != want.Len() {
			t.Fatalf("leaf %d: stamp (%#x, %d), crash state (%#x, %d)",
				leaf.ID, leaf.ImageHash, leaf.ImageSize, want.Hash(), want.Len())
		}
	}
}

func TestInjectorStackMode(t *testing.T) {
	// The construction run and the injection replays drive the
	// application from the same call site so that call stacks — and
	// therefore failure-point identities — agree, as they do when the
	// core pipeline re-executes the same binary. Each replay targets
	// one specific leaf; the tree is frozen and never mutated.
	st := stack.NewTable()
	tree := New(st)
	// Every phase drives the workload through the one call site below so
	// the call frames above the engine — and therefore the interned
	// stack IDs — are identical between construction and replay, as
	// they are when the core pipeline re-executes the same binary.
	// Phase -1 builds the tree; phase i >= 0 replays against leaf i of
	// the FirstICount ordering with a private targeted injector.
	var (
		order []*Leaf
		sigs  []*pmem.CrashSignal
	)
	for phase := -1; phase == -1 || phase < len(order); phase++ {
		e := pmem.NewEngine(pmem.Options{PoolSize: 4096, Capture: pmem.CapturePersistency, Stacks: st})
		if phase == -1 {
			e.AttachHook(NewBuilder(tree, GranPersistency))
		} else {
			e.AttachHook(&Injector{Target: order[phase], Granularity: GranPersistency})
		}
		app := &pmApp{e: e}
		func() {
			defer func() {
				if r := recover(); r != nil {
					sigs = append(sigs, r.(*pmem.CrashSignal))
				}
			}()
			app.mainPath()
			app.loopPath()
		}()
		if phase == -1 {
			tree.Freeze()
			order = tree.LeavesByICount()
			if len(order) == 0 {
				t.Fatal("construction run built no failure points")
			}
		}
	}
	if len(sigs) != len(order) {
		t.Fatalf("%d of %d replays crashed", len(sigs), len(order))
	}
	for i, leaf := range order {
		if sigs[i].Stack != leaf.Stack {
			t.Fatalf("leaf #%d crashed on stack %d, want %d", leaf.ID, sigs[i].Stack, leaf.Stack)
		}
		// The first gated occurrence of a deterministic replay is the
		// one the builder recorded.
		if sigs[i].ICount != leaf.FirstICount {
			t.Fatalf("leaf #%d crashed at instruction %d, want %d", leaf.ID, sigs[i].ICount, leaf.FirstICount)
		}
	}
}
