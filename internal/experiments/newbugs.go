package experiments

import (
	"fmt"
	"strings"

	"mumak/internal/apps"
	"mumak/internal/core"
	"mumak/internal/pmdk"
	"mumak/internal/workload"
)

// NewBugRun is one §6.4 reproduction.
type NewBugRun struct {
	Name    string
	Target  string
	Found   bool
	Detail  string
	Elapsed string
}

// NewBugs reproduces the four previously unknown bugs of §6.4: the two
// Montage allocator bugs (found because Mumak is library-agnostic) and
// the two PMDK 1.12 bugs (the pmemobj_tx_commit undo-log growth bug,
// which only a large-transaction workload triggers, and the ART insert
// bug).
func NewBugs(sc Scale) ([]NewBugRun, error) {
	var out []NewBugRun

	run := func(name, target string, cfg apps.Config, w workload.Workload) error {
		app, err := apps.New(target, cfg)
		if err != nil {
			return err
		}
		res, err := core.Analyze(app, w, core.Config{Budget: sc.Budget, Classing: true})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r := NewBugRun{Name: name, Target: app.Name(), Elapsed: res.Elapsed.Round(1e6).String()}
		if bugsFound := res.Report.Bugs(); len(bugsFound) > 0 {
			r.Found = true
			r.Detail = bugsFound[0].Detail
		}
		out = append(out, r)
		return nil
	}

	ops := sc.Ops
	if ops > 4000 {
		ops = 4000
	}
	w := workload.Generate(workload.Config{N: ops, Seed: sc.Seed, Keyspace: uint64(ops/2 + 1)})

	// Montage: its own allocator, no PMDK — only a black-box tool sees
	// it. Each run plants exactly one of the two historical bugs.
	aCfg0 := apps.Config{PoolSize: 32 << 20, MontageBuggyAlloc: true}
	if err := run("Montage allocator misuse (pull #36)", "montage-hashtable", aCfg0, w); err != nil {
		return nil, err
	}
	cCfg := apps.Config{PoolSize: 32 << 20, MontageBuggyClose: true}
	if err := run("Montage allocator destruction (commit 3384e50)", "montage-lfhashtable", cCfg, w); err != nil {
		return nil, err
	}

	// PMDK 1.12 undo-log growth: needs the original (one big
	// transaction) btree workload so the log overflows — "only exposed
	// when performing a large number of operations".
	bCfg := apps.Config{Ver: pmdk.V112, SPT: false, PoolSize: 64 << 20}
	if err := run("PMDK 1.12 pmemobj_tx_commit (issue #5461)", "btree", bCfg, w); err != nil {
		return nil, err
	}

	// PMDK 1.12 ART insert (issue #5512).
	aCfg := apps.Config{Ver: pmdk.V112, PoolSize: 32 << 20}
	if err := run("PMDK 1.12 libart insert (issue #5512)", "art", aCfg, w); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderNewBugs prints the §6.4 reproduction table.
func RenderNewBugs(runs []NewBugRun) string {
	var sb strings.Builder
	sb.WriteString("# New bugs found by Mumak (§6.4 reproductions)\n")
	for _, r := range runs {
		status := "NOT FOUND"
		if r.Found {
			status = "found"
		}
		fmt.Fprintf(&sb, "%-48s %-22s %-10s (%s)\n", r.Name, r.Target, status, r.Elapsed)
		if r.Detail != "" {
			fmt.Fprintf(&sb, "    %s\n", firstLine(r.Detail))
		}
	}
	return sb.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
