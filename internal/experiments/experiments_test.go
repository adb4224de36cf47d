package experiments_test

import (
	"strings"
	"testing"
	"time"

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
	"mumak/internal/experiments"
	"mumak/internal/pmdk"
)

func TestFig3PathsGrowWithWorkloadSize(t *testing.T) {
	sizes := []int{30, 300, 1500}
	fig3a, fig3b, err := experiments.Fig3(sizes, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig3a {
		first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
		if last <= first {
			t.Errorf("fig3a %s: paths did not grow (%v -> %v)", s.Label, first, last)
		}
	}
	// Claim from §6.1: store-granularity paths exceed
	// persistency-instruction paths.
	for i := range fig3a {
		pa := fig3a[i].Points[len(fig3a[i].Points)-1].Y
		pb := fig3b[i].Points[len(fig3b[i].Points)-1].Y
		if pb <= pa {
			t.Errorf("%s: store paths (%v) should exceed persistency paths (%v)",
				fig3a[i].Label, pb, pa)
		}
	}
}

func TestFig4ShapeQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tool comparison is slow")
	}
	sc := experiments.Scale{Ops: 800, Budget: 8 * time.Second, MemBudget: 256 << 20, Seed: 42}
	runs, err := experiments.Fig4(pmdk.V16, sc)
	if err != nil {
		t.Fatal(err)
	}
	var mumakBtree, xfBtree *experiments.ToolRun
	for i := range runs {
		r := &runs[i]
		if r.Target == "btree (SPT)" {
			switch r.Tool {
			case "Mumak":
				mumakBtree = r
			case "XFDetector":
				xfBtree = r
			}
		}
	}
	if mumakBtree == nil || xfBtree == nil {
		t.Fatalf("missing rows: %+v", runs)
	}
	if mumakBtree.Censored {
		t.Fatal("Mumak exhausted the budget at quick scale")
	}
	// C2: Mumak is substantially faster than XFDetector (up to 25x in
	// the paper; require a clear win here).
	if !xfBtree.Censored && xfBtree.Elapsed < 2*mumakBtree.Elapsed {
		t.Errorf("XFDetector (%v) should be far slower than Mumak (%v)",
			xfBtree.Elapsed, mumakBtree.Elapsed)
	}
	// Table 2: XFDetector keeps shadow memory in PM, Mumak keeps none.
	if xfBtree.PMx <= 1 || mumakBtree.PMx != 1 {
		t.Errorf("PM column: XFDetector %.2f (want above 1), Mumak %.2f (want 1)", xfBtree.PMx, mumakBtree.PMx)
	}
}

// TestErgonomicsRowsPinned pins the measured §6.5 rows at Quick scale:
// raw findings, unique bugs and unique bugs with a complete path, per
// tool. These are the table's claims, so they are counts, never times:
// Mumak reports one deduplicated bug with its path; XFDetector reports
// every occurrence, hundreds of raw findings that share no code path and
// so tell apart only by address, none with a path (Table 3); the rest
// miss this defect at this scale.
func TestErgonomicsRowsPinned(t *testing.T) {
	rows, err := experiments.Ergonomics(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		tool                   string
		raw, unique, withPaths int
	}{
		{"Mumak", 1, 1, 1},
		{"XFDetector", 383, 87, 0},
		{"PMDebugger", 0, 0, 0},
		{"Agamotto", 0, 0, 0},
		{"Witcher", 0, 0, 0},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i, w := range want {
		r := rows[i]
		if r.Tool != w.tool || r.Err != "" || r.RawFindings != w.raw || r.Unique != w.unique || r.WithPaths != w.withPaths {
			t.Errorf("row %d: %s %d/%d/%d (err %q), want %s %d/%d/%d",
				i, r.Tool, r.RawFindings, r.Unique, r.WithPaths, r.Err, w.tool, w.raw, w.unique, w.withPaths)
		}
	}
}

func TestCodeSizeMeasurement(t *testing.T) {
	for _, target := range experiments.Fig5Targets {
		n, err := experiments.CodeSize(target)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if n < 300 {
			t.Errorf("%s: implausibly small codebase (%d lines)", target, n)
		}
	}
}

func TestNewBugsAllFour(t *testing.T) {
	sc := experiments.Quick()
	sc.Ops = 3000
	sc.Budget = 60 * time.Second
	runs, err := experiments.NewBugs(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d reproductions, want 4", len(runs))
	}
	for _, r := range runs {
		if !r.Found {
			t.Errorf("%s: not reproduced", r.Name)
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	out := experiments.RenderSeries("T", "x", "y", []experiments.Series{
		{Label: "a", Points: []experiments.Point{{X: 1, Y: 2}, {X: 10, Y: 3, Censored: true}}},
	})
	if !strings.Contains(out, "# T") || !strings.Contains(out, "inf(") {
		t.Errorf("series rendering:\n%s", out)
	}
	out = experiments.RenderToolRuns("T", []experiments.ToolRun{
		{Tool: "Mumak", Target: "btree", Elapsed: time.Second, CPU: 1, RAMx: 2, PMx: 1},
		{Tool: "Witcher", Target: "btree", OOM: true, Censored: true},
	})
	if !strings.Contains(out, "OOM") {
		t.Errorf("tool-run rendering:\n%s", out)
	}
}
