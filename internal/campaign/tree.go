package campaign

import (
	"fmt"
	"os"
	"path/filepath"

	"mumak/internal/fpt"
	"mumak/internal/stack"
)

// TreeFile is the name SaveTree gives the tree artifact in its
// directory.
const TreeFile = "failure-point-tree.gob"

// The tree artifact is a sealed file (magic MUMAKFPT, version 1).
var treeMagic = [8]byte{'M', 'U', 'M', 'A', 'K', 'F', 'P', 'T'}

const treeVersion = 1

// wireLeaf is the serialised form of one failure point. Visited marks
// a leaf of the campaign's consumed prefix. ImageHash and
// ImageSize carry the crash-image equivalence stamp; gob tolerates
// their absence, so artifacts written before stamping existed decode
// with ImageSize == 0, which readers treat as unstamped (the format
// version is unchanged on purpose).
type wireLeaf struct {
	PCs         []uintptr
	FirstICount uint64
	Visited     bool
	ImageHash   uint64
	ImageSize   int
}

// wireTree is the serialised tree: the leaves with their full call
// stacks; the trie is rebuilt on load.
type wireTree struct {
	Leaves []wireLeaf
}

// SaveTree writes the failure point tree to TreeFile in dir (step 5 of
// Fig 1), together with the campaign's progress: the first consumed
// leaves of LeavesByICount, the prefix an injection campaign has
// consumed, are marked visited. Pass 0 for a fresh tree. Program
// counters are only stable within one process image — the same
// constraint that makes the original pre-allocate Pin's memory and
// disable address-space randomisation (§5, A.3) — so the artifact
// documents one analysis; campaigns resume from their journal, never
// from it.
func SaveTree(dir string, t *fpt.Tree, consumed int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: creating artifact directory: %w", err)
	}
	visited := make([]bool, t.Len())
	for _, l := range t.LeavesByICount()[:consumed] {
		visited[l.ID] = true
	}
	wt := wireTree{Leaves: make([]wireLeaf, 0, t.Len())}
	for _, l := range t.Leaves() {
		wt.Leaves = append(wt.Leaves, wireLeaf{
			PCs:         t.Stacks().PCs(l.Stack),
			FirstICount: l.FirstICount,
			Visited:     visited[l.ID],
			ImageHash:   l.ImageHash,
			ImageSize:   l.ImageSize,
		})
	}
	return writeSealed(filepath.Join(dir, TreeFile), treeMagic, treeVersion, &wt)
}

// LoadTree reads the tree artifact at path into the given stack table,
// rebuilding the trie and re-interning every stack, and returns it
// frozen together with the number of failure points the artifact marks
// visited. Those must be a prefix of the restored tree's
// LeavesByICount — the only shape campaign progress takes — so the
// count says exactly which leaves were explored. Damaged artifacts,
// visited marks that are not such a prefix, and files that are not
// tree artifacts at all are rejected with a diagnostic.
func LoadTree(path string, stacks *stack.Table) (*fpt.Tree, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: reading tree artifact: %w", err)
	}
	var wt wireTree
	if err := unseal(data, treeMagic, treeVersion, &wt); err != nil {
		return nil, 0, fmt.Errorf("campaign: %s is not a usable tree artifact: %w", path, err)
	}
	t := fpt.New(stacks)
	visited := make([]bool, len(wt.Leaves))
	consumed := 0
	for i, wl := range wt.Leaves {
		leaf, added := t.Insert(stacks.Intern(wl.PCs), wl.FirstICount)
		if !added {
			return nil, 0, fmt.Errorf("campaign: tree artifact %s holds a duplicate failure point", path)
		}
		leaf.ImageHash = wl.ImageHash
		leaf.ImageSize = wl.ImageSize
		if wl.Visited {
			visited[i] = true
			consumed++
		}
	}
	t.Freeze()
	for _, l := range t.LeavesByICount()[:consumed] {
		if !visited[l.ID] {
			return nil, 0, fmt.Errorf("campaign: tree artifact %s is corrupt: the %d visited failure points are not the first %d in first-occurrence order",
				path, consumed, consumed)
		}
	}
	return t, consumed, nil
}
