// Package pmtest reimplements PMTest (Liu et al., ASPLOS'19): a fast,
// library-agnostic checker of assert-like persistency annotations. The
// programmer (or the library on their behalf) asserts that ranges are
// persistent at given points; PMTest records PM operations and verifies
// the assertions against them with a decoupled checking pass. Our PM
// libraries' AnnPersist annotations play the role of isPersist()
// assertions: the checker verifies that the asserted range really was
// flushed and fenced by the time of the assertion, catching library-
// or application-level persist lies. Targets without annotations
// cannot be tested — the ✓* of Table 1.
package pmtest

import (
	"errors"
	"fmt"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/workload"
)

// ErrNoAssertions marks a target with no persistency assertions.
var ErrNoAssertions = errors.New("pmtest: target carries no persistency assertions")

// Tool is the PMTest reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "PMTest" }

// Analyze implements tools.Tool.
func (t *Tool) Analyze(app harness.Application, w workload.Workload, cfg tools.Config) (*tools.Result, error) {
	res, _ := tools.Begin(t.Name(), app, cfg)
	// Record phase (decoupled from checking, as in the original).
	hook := &recorder{}
	if err := tools.Run(app, w, res, hook); err != nil {
		return nil, err
	}
	// Replay-check phase.
	checkAssertions(hook, res.Report)
	res.Explored = len(hook.asserts)
	if len(hook.asserts) == 0 {
		return res, ErrNoAssertions
	}
	return res, nil
}

// pmOp is one recorded operation.
type pmOp struct {
	kind pmem.Kind
	op   pmem.Opcode
	addr uint64
	size int
	ic   uint64
}

// assertion is one isPersist() check point.
type assertion struct {
	addr uint64
	size int
	ic   uint64
	// opIndex is the recorded-operation horizon at assertion time.
	opIndex int
}

// recorder captures PM operations and assertions for the decoupled
// checking pass.
type recorder struct {
	ops     []pmOp
	asserts []assertion
}

// OnEvent implements pmem.Hook.
func (r *recorder) OnEvent(ev *pmem.Event) {
	r.ops = append(r.ops, pmOp{kind: ev.Op.Kind(), op: ev.Op, addr: ev.Addr, size: ev.Size, ic: ev.ICount})
}

// OnAnnotation implements pmem.AnnotationObserver.
func (r *recorder) OnAnnotation(a *pmem.Annotation) {
	if a.Kind != pmem.AnnPersist {
		return
	}
	r.asserts = append(r.asserts, assertion{addr: a.Addr, size: a.Size, ic: a.ICount, opIndex: len(r.ops)})
}

// checkAssertions replays the operation log against every assertion:
// each cache line of the asserted range must have been flushed after its
// last store, and a fence must follow the flush, all before the
// assertion point.
func checkAssertions(r *recorder, rep *report.Report) {
	for _, a := range r.asserts {
		first := a.addr &^ (pmem.CacheLineSize - 1)
		last := (a.addr + uint64(a.size) - 1) &^ (pmem.CacheLineSize - 1)
		for base := first; base <= last; base += pmem.CacheLineSize {
			if ok, why := linePersisted(r.ops[:a.opIndex], base); !ok {
				rep.Add(report.Finding{
					Kind:   report.CrashConsistency,
					ICount: a.ic,
					Addr:   base,
					Detail: fmt.Sprintf("pmtest: isPersist assertion fails: %s", why),
				})
			}
		}
	}
}

// linePersisted walks the operation prefix backwards deciding whether
// the line's latest store is flushed and fenced.
func linePersisted(ops []pmOp, base uint64) (bool, string) {
	fenced := false
	for i := len(ops) - 1; i >= 0; i-- {
		op := &ops[i]
		switch op.kind {
		case pmem.KindFence:
			fenced = true
		case pmem.KindFlush:
			if op.addr == base {
				if op.op == pmem.OpCLFlush {
					return true, "" // synchronous flush
				}
				if fenced {
					return true, ""
				}
				return false, "flush not yet fenced at the assertion point"
			}
		case pmem.KindStore:
			if op.op == pmem.OpNTStore {
				if overlapsLine(op.addr, op.size, base) {
					if fenced {
						return true, ""
					}
					return false, "non-temporal store not yet fenced at the assertion point"
				}
				continue
			}
			if overlapsLine(op.addr, op.size, base) {
				return false, "store to the asserted range was never flushed"
			}
		}
	}
	return true, "" // never stored: vacuously persistent
}

func overlapsLine(addr uint64, size int, base uint64) bool {
	return addr < base+pmem.CacheLineSize && addr+uint64(size) > base
}

var _ tools.Tool = (*Tool)(nil)
var _ pmem.AnnotationObserver = (*recorder)(nil)
