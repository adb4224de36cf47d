// Package yat reimplements Yat (Lantz et al., ATC'14): record all PM
// operations, then replay them in every permissible persist ordering,
// checking each resulting state with the application's recovery
// procedure. At every fence, each racing write-back (and each store
// evictable from the cache) may or may not have reached the medium, so
// the tool enumerates all 2^k subsets per epoch — the exhaustive search
// whose projected runtime on real programs is measured in years, which
// is why Analyze is only practical for small workloads and is used by
// the ablation benches (§3, §4.1).
package yat

import (
	"fmt"

	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/trace"
	"mumak/internal/workload"
)

// maxUnits caps the racing write-backs enumerated per crash point;
// epochs with more are truncated to the first maxUnits, so a crash point
// yields at most 1024 images.
const maxUnits = 10

// Tool is the Yat reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "Yat" }

// Analyze implements tools.Tool.
func (t *Tool) Analyze(app harness.Application, w workload.Workload, cfg tools.Config) (*tools.Result, error) {
	res, expired := tools.Begin(t.Name(), app, cfg)
	tr, err := tools.Record(app, w, res, false)
	if err != nil {
		return nil, err
	}
	cursor := trace.NewCursor(tr)
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Op.Kind() == pmem.KindFence {
			// Crash point just before the fence: enumerate every
			// subset of the racing write-backs and evictable stores.
			uncertain := cursor.Uncertain()
			n := min(len(uncertain), maxUnits)
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				if expired() {
					res.TimedOut = true
					break
				}
				img := cursor.Materialize(uncertain, func(j int) bool {
					return j < n && mask&(1<<uint(j)) != 0
				})
				res.Explored++
				if out := oracle.Check(app, img); !out.Consistent() {
					res.Report.Add(report.Finding{
						Kind:   report.CrashConsistency,
						ICount: r.ICount,
						Detail: fmt.Sprintf("persist ordering %b of %d racing write-backs is unrecoverable: %s",
							mask, len(uncertain), out.Describe()),
					})
				}
			}
		}
		if res.TimedOut {
			break
		}
		cursor.Step()
	}
	return res, nil
}

var _ tools.Tool = (*Tool)(nil)
