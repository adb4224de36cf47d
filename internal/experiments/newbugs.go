package experiments

import (
	"fmt"
	"strings"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/pmdk"
	"mumak/internal/workload"
)

// newBugs are the four previously unknown bugs of §6.4, each planted
// alone in its target.
var newBugs = []struct {
	name, target string
	cfg          apps.Config
}{
	// Montage: its own allocator, no PMDK — only a black-box tool sees
	// it.
	{"Montage allocator misuse (pull #36)", "montage-hashtable",
		apps.Config{PoolSize: 32 << 20, MontageBuggyAlloc: true}},
	{"Montage allocator destruction (commit 3384e50)", "montage-lfhashtable",
		apps.Config{PoolSize: 32 << 20, MontageBuggyClose: true}},
	// PMDK 1.12 undo-log growth: needs the original (one big
	// transaction) btree workload so the log overflows — "only exposed
	// when performing a large number of operations".
	{"PMDK 1.12 pmemobj_tx_commit (issue #5461)", "btree",
		apps.Config{Ver: pmdk.V112, SPT: false, PoolSize: 64 << 20}},
	{"PMDK 1.12 libart insert (issue #5512)", "art",
		apps.Config{Ver: pmdk.V112, PoolSize: 32 << 20}},
}

// renderNewBugs writes newbugs.txt: Mumak's run on each bug of newBugs,
// whether it found the bug, in what time, and the first line of the
// first bug's detail.
func renderNewBugs(sc Scale) (string, error) {
	w := workload.Generate(workload.Config{N: sc.Ops, Seed: sc.Seed, Keyspace: uint64(sc.Ops/2 + 1)})
	var sb strings.Builder
	sb.WriteString("# New bugs found by Mumak (§6.4 reproductions)\n")
	for _, nb := range newBugs {
		app, err := apps.New(nb.target, nb.cfg)
		if err != nil {
			return "", err
		}
		res, err := core.Analyze(app, w, core.Config{Budget: sc.Budget, Classing: true})
		if err != nil {
			return "", fmt.Errorf("%s: %w", nb.name, err)
		}
		status, detail := "NOT FOUND", ""
		if found := res.Report.Bugs(); len(found) > 0 {
			status, detail = "found", found[0].Detail
		}
		fmt.Fprintf(&sb, "%-48s %-22s %-10s (%s)\n", nb.name, app.Name(), status, res.Elapsed.Round(1e6))
		if detail != "" {
			fmt.Fprintf(&sb, "    %s\n", firstLine(detail))
		}
	}
	return sb.String(), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
