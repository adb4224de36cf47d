package experiments

import (
	"path/filepath"
	"time"

	// The targets every file runs, registered by name.
	_ "mumak/internal/apps/art"
	_ "mumak/internal/apps/btree"
	_ "mumak/internal/apps/cceh"
	_ "mumak/internal/apps/fastfair"
	_ "mumak/internal/apps/hashatomic"
	_ "mumak/internal/apps/levelhash"
	_ "mumak/internal/apps/montageht"
	_ "mumak/internal/apps/pmemkv"
	_ "mumak/internal/apps/rbtree"
	_ "mumak/internal/apps/redis"
	_ "mumak/internal/apps/rocksdb"
	_ "mumak/internal/apps/wort"
	"mumak/internal/pmdk"
)

// File is one figure or table file under results/.
type File struct {
	// Name is the file's name in results/.
	Name string
	// Scale is the one scale the file is written at.
	Scale Scale
	// HostDependent marks a file whose counts, not only its times,
	// depend on host speed: which runs finish within their budget.
	HostDependent bool
	render        func(Scale) (string, error)
}

// Files lists every figure and table file of the evaluation, in the
// order cmd/evaluate writes them.
var Files = []File{
	{Name: "fig3.txt", Scale: Scale{Seed: 42}, render: renderFig3},
	{Name: "fig4a.txt", Scale: fig4Scale, HostDependent: true, render: func(sc Scale) (string, error) {
		return renderFig4(pmdk.V16, "4a", sc)
	}},
	{Name: "fig4b.txt", Scale: fig4Scale, HostDependent: true, render: func(sc Scale) (string, error) {
		return renderFig4(pmdk.V18, "4b", sc)
	}},
	{Name: "fig5.txt", Scale: Scale{Ops: 15000, Budget: 5 * time.Minute, Seed: 42}, render: renderFig5},
	{Name: "coverage.txt", Scale: coverageScale, render: func(sc Scale) (string, error) {
		return renderCoverage(sc, true)
	}},
	{Name: "coverage_norec.txt", Scale: coverageScale, render: func(sc Scale) (string, error) {
		return renderCoverage(sc, false)
	}},
	{Name: "newbugs.txt", Scale: Scale{Ops: 4000, Budget: 2 * time.Minute, Seed: 42}, render: renderNewBugs},
	{Name: "tables.txt", Scale: Quick(), render: renderTables},
	{Name: "ablations.txt", Scale: Scale{Ops: 1000, Seed: 42}, render: renderAblations},
}

var (
	fig4Scale     = Scale{Ops: 15000, Budget: time.Minute, MemBudget: 2 << 30, Seed: 42}
	coverageScale = Scale{Ops: 2000, Budget: time.Minute, Seed: 42}
)

// Generate returns the file's content at its scale, headed by the
// command that writes it.
func (f *File) Generate() (string, error) {
	body, err := f.render(f.Scale)
	if err != nil {
		return "", err
	}
	return "# go run ./cmd/evaluate " + f.Name + " (" + f.Scale.String() + ")\n" + body, nil
}

// ResultsDir is results/ at the module root.
func ResultsDir() (string, error) {
	root, err := moduleRoot()
	return filepath.Join(root, "results"), err
}
