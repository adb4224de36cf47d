// Package xfdetector reimplements XFDetector (Liu et al., ASPLOS'20):
// cross-failure bug detection with shadow memory. Every store to PM is a
// failure point; for each one the tool takes the strictly durable state
// and then runs the post-failure (recovery) execution under
// instrumentation, flagging reads of data that was written before the
// failure but not guaranteed durable — a cross-failure read.
//
// The original re-executes the instrumented pre-failure run for every
// failure point, which is why it needs 40.6 seconds per analysed
// operation and exceeds any reasonable budget on 150 k-op workloads
// (§6.1). This reimplementation records the pre-failure run once and
// builds each failure point's durable state from that trace
// (trace.Cursor; see package tools), so its cost per failure point is
// the instrumented post-failure execution and the shadow-memory
// maintenance. The shadow state is kept in (simulated) PM, giving the
// tool its characteristic ~2x PM overhead (Table 2), which it reports as
// Result.PMExtraBytes.
package xfdetector

import (
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/trace"
	"mumak/internal/workload"
)

// Tool is the XFDetector reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "XFDetector" }

// Analyze implements tools.Tool.
func (t *Tool) Analyze(app harness.Application, w workload.Workload, cfg tools.Config) (*tools.Result, error) {
	res, expired := tools.Begin(t.Name(), app, cfg)
	// Pre-pass: one instrumented execution collecting the trace (with
	// loads, needed for shadow-memory checking) and every store event
	// as a failure point.
	tr, err := tools.Record(app, w, res, true)
	if err != nil {
		return nil, err
	}
	// XFDetector keeps its shadow memory in PM: one shadow byte per
	// byte of PM the target actually touches (the ~2x PM overhead of
	// Table 2).
	shadowLines := map[uint64]struct{}{}
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Op.Kind() == pmem.KindStore {
			shadowLines[r.Addr&^(pmem.CacheLineSize-1)] = struct{}{}
		}
	}
	res.PMExtraBytes = uint64(len(shadowLines)) * pmem.CacheLineSize

	cursor := trace.NewCursor(tr)
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Op.Kind() != pmem.KindStore {
			cursor.Step()
			continue
		}
		if expired() {
			res.TimedOut = true
			break
		}
		res.Explored++
		// Failure point BEFORE this store: the durable state is the
		// cursor's certain image; everything stored but uncertain is
		// shadow-tainted.
		uncertain := cursor.Uncertain()
		taint := map[uint64]bool{}
		for _, u := range uncertain {
			for b := uint64(0); b < uint64(len(u.Data)); b++ {
				taint[u.Addr+b] = true
			}
		}
		img := cursor.Certain()
		// Post-failure execution: run recovery fully instrumented with
		// the shadow-memory read checker (the expensive half).
		postEng := pmem.NewEngineFromImage(pmem.Options{}, img)
		checker := &shadowChecker{taint: taint}
		postEng.AttachHook(checker)
		out := oracle.CheckEngine(app, postEng)
		res.EngineEvents += postEng.Events()
		if checker.firstRead != 0 {
			res.Report.Add(report.Finding{
				Kind:   report.CrashConsistency,
				ICount: r.ICount,
				Addr:   checker.firstAddr,
				Detail: "post-failure execution read data written before the failure but not guaranteed durable",
			})
		} else if !out.Consistent() {
			res.Report.Add(report.Finding{
				Kind:   report.CrashConsistency,
				ICount: r.ICount,
				Detail: out.Describe(),
			})
		}
		cursor.Step()
	}
	return res, nil
}

// shadowChecker flags post-failure reads of tainted (written but not
// durable) bytes, clearing taint on post-failure overwrites.
type shadowChecker struct {
	taint     map[uint64]bool
	firstRead uint64
	firstAddr uint64
}

// OnEvent implements pmem.Hook.
func (c *shadowChecker) OnEvent(ev *pmem.Event) {
	switch ev.Op.Kind() {
	case pmem.KindStore:
		for b := uint64(0); b < uint64(ev.Size); b++ {
			delete(c.taint, ev.Addr+b)
		}
	case pmem.KindLoad:
		if c.firstRead != 0 {
			return
		}
		for b := uint64(0); b < uint64(ev.Size); b++ {
			if c.taint[ev.Addr+b] {
				c.firstRead = ev.ICount
				c.firstAddr = ev.Addr + b
				return
			}
		}
	}
}

var _ tools.Tool = (*Tool)(nil)
