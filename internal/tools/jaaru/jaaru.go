// Package jaaru reimplements Jaaru (Gorjiara et al., ASPLOS'21):
// model-checking of PM programs with lazy, constraint-based state
// exploration. Where Yat eagerly enumerates every post-failure memory
// state, Jaaru only branches on the values that post-failure executions
// actually read: at each crash point it runs the recovery once to learn
// the read set, restricts the racing write-backs to those overlapping
// it, and explores the value combinations of that (usually much
// smaller) set — exponential only for persistency patterns whose
// recovery reads many racing locations, as §3 observes.
package jaaru

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

// maxRelevant caps the racing write-backs branched on per crash point
// after the read-set restriction.
const maxRelevant = 12

// Tool is the Jaaru reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "Jaaru" }

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
			if expired() {
				res.TimedOut = true
				break
			}
			t.exploreCrashPoint(app, cursor, r.ICount, res)
		}
		cursor.Step()
	}
	return res, nil
}

// exploreCrashPoint applies the lazy constraint refinement at one
// fence: branch only on write-backs whose bytes some post-failure
// execution reads, iterating as newly explored branches reveal further
// reads (Jaaru's constraint refinement).
func (t *Tool) exploreCrashPoint(app harness.Application, cursor *trace.Cursor,
	icount uint64, res *tools.Result) {

	uncertain := cursor.Uncertain()
	if len(uncertain) == 0 {
		return
	}
	// Seed the read set with one recovery over the certain image.
	reads := &readSet{bytes: map[uint64]bool{}}
	probe := pmem.NewEngineFromImage(pmem.Options{}, cursor.Certain())
	probe.AttachHook(reads)
	out := oracle.CheckEngine(app, probe)
	res.EngineEvents += probe.Events()
	if !out.Consistent() {
		res.Report.Add(report.Finding{
			Kind:   report.CrashConsistency,
			ICount: icount,
			Detail: "guaranteed-durable state at this fence is unrecoverable",
		})
	}

	var relevant []int
	inRelevant := map[int]bool{}
	prevBits := 0
	for round := 0; round < 4; round++ {
		grew := false
		for idx, u := range uncertain {
			if inRelevant[idx] {
				continue
			}
			for b := uint64(0); b < uint64(len(u.Data)); b++ {
				if reads.bytes[u.Addr+b] {
					inRelevant[idx] = true
					relevant = append(relevant, idx)
					grew = true
					break
				}
			}
		}
		if !grew || len(relevant) == 0 {
			return
		}
		branch := relevant[:min(len(relevant), maxRelevant)]
		for mask := uint64(0); mask < 1<<uint(len(branch)); mask++ {
			if round > 0 && mask < 1<<uint(prevBits) {
				continue // selects only already-tested write-backs
			}
			img := cursor.Materialize(uncertain, func(j int) bool {
				for bit, idx := range branch {
					if idx == j {
						return mask&(1<<uint(bit)) != 0
					}
				}
				return true // not branched on: persisted per program order
			})
			res.Explored++
			eng := pmem.NewEngineFromImage(pmem.Options{}, img)
			eng.AttachHook(reads) // refinement: collect this branch's reads
			out := oracle.CheckEngine(app, eng)
			res.EngineEvents += eng.Events()
			if !out.Consistent() {
				res.Report.Add(report.Finding{
					Kind:   report.CrashConsistency,
					ICount: icount,
					Detail: fmt.Sprintf("constraint branch %b over %d read-relevant write-backs is unrecoverable: %s",
						mask, len(branch), out.Describe()),
				})
			}
		}
		prevBits = len(branch)
	}
}

// readSet records every byte loaded.
type readSet struct{ bytes map[uint64]bool }

// OnEvent implements pmem.Hook.
func (rs *readSet) OnEvent(ev *pmem.Event) {
	if ev.Op != pmem.OpLoad {
		return
	}
	for b := uint64(0); b < uint64(ev.Size); b++ {
		rs.bytes[ev.Addr+b] = true
	}
}

var _ tools.Tool = (*Tool)(nil)
