package fpt_test

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"mumak/internal/campaign"
	. "mumak/internal/fpt"
	"mumak/internal/stack"
)

// The tree's artifact file is written and read by internal/campaign;
// these tests check that a tree survives the round trip whole.

// saveAndLoad writes tree with the given consumed prefix and reads it
// back into a fresh stack table.
func saveAndLoad(t *testing.T, tree *Tree, consumed int) (*Tree, int, *stack.Table, error) {
	t.Helper()
	dir := t.TempDir()
	if err := campaign.SaveTree(dir, tree, consumed); err != nil {
		t.Fatal(err)
	}
	st := stack.NewTable()
	got, visited, err := campaign.LoadTree(filepath.Join(dir, campaign.TreeFile), st)
	return got, visited, st, err
}

func TestSerializeRoundTrip(t *testing.T) {
	st := stack.NewTable()
	tree := New(st)
	tree.Insert(st.Intern([]uintptr{11, 20, 30}), 9)
	tree.Insert(st.Intern([]uintptr{10, 20, 30}), 5)
	tree.Freeze()

	got, consumed, st2, err := saveAndLoad(t, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("restored %d leaves, want 2", got.Len())
	}
	if !got.Frozen() {
		t.Fatal("restored tree not frozen")
	}
	// The progress survives: the first leaf in FirstICount order (the
	// second inserted) was consumed, the other is still unexplored.
	if consumed != 1 {
		t.Fatalf("restored %d consumed failure points, want 1", consumed)
	}
	if first := got.LeavesByICount()[0]; first.FirstICount != 5 {
		t.Fatalf("first leaf in FirstICount order: %+v", first)
	}
	// Lookup works against re-interned stacks.
	if got.Lookup(st2.Intern([]uintptr{10, 20, 30})) == nil {
		t.Fatal("restored tree lost a path")
	}
}

func TestSerializePreservesImageStamps(t *testing.T) {
	st := stack.NewTable()
	tree := New(st)
	a, _ := tree.Insert(st.Intern([]uintptr{10, 20, 30}), 5)
	a.ImageHash = 0xdeadbeefcafe
	a.ImageSize = 4096
	// A zero ImageHash with a non-zero size is a legitimate stamp (a
	// still-zeroed pool) and must survive the round trip as stamped.
	b, _ := tree.Insert(st.Intern([]uintptr{11, 20, 30}), 9)
	b.ImageHash = 0
	b.ImageSize = 4096
	tree.Freeze()

	got, _, _, err := saveAndLoad(t, tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaves := got.LeavesByICount()
	if len(leaves) != 2 {
		t.Fatalf("restored %d leaves, want 2", len(leaves))
	}
	if leaves[0].ImageHash != 0xdeadbeefcafe || leaves[0].ImageSize != 4096 {
		t.Fatalf("stamp lost: %+v", leaves[0])
	}
	if leaves[1].ImageHash != 0 || leaves[1].ImageSize != 4096 {
		t.Fatalf("zero-hash stamp lost: %+v", leaves[1])
	}
}

func TestReadTreeRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), campaign.TreeFile)
	if err := os.WriteFile(path, []byte("not a tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := campaign.LoadTree(path, stack.NewTable()); err == nil {
		t.Fatal("garbage input accepted")
	}
}

// TestPropertySerializePreservesLeaves: any tree, with any consumed
// prefix, round-trips its shape and its progress count.
func TestPropertySerializePreservesLeaves(t *testing.T) {
	f := func(raw [][]uint16, icounts []uint64, k uint8) bool {
		st := stack.NewTable()
		tree := New(st)
		for i, r := range raw {
			if len(r) == 0 {
				continue
			}
			pcs := make([]uintptr, len(r))
			for j, v := range r {
				pcs[j] = uintptr(v) + 1
			}
			ic := uint64(i + 1)
			if i < len(icounts) {
				ic = icounts[i]%1000 + 1
			}
			tree.Insert(st.Intern(pcs), ic)
		}
		want := int(k) % (tree.Len() + 1)
		got, consumed, _, err := saveAndLoad(t, tree, want)
		if err != nil {
			return false
		}
		return got.Len() == tree.Len() && got.Nodes() == tree.Nodes() &&
			consumed == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
