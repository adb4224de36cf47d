package core

import (
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// resolveStacks is the §5 debug-information pass: the optimised trace
// carries only instruction counters, so the target is executed once more
// with minimal instrumentation, an engine that captures call stacks
// exactly at the flagged counters. Analyze passes only the findings its
// report keeps, so a run without any skips the re-execution. The pass
// relies on the target's determinism, like the counter-mode injector.
func resolveStacks(app harness.Application, w workload.Workload,
	stacks *stack.Table, findings []*report.Finding, sb sandboxCfg) {

	if len(findings) == 0 {
		return
	}
	wanted := make(map[uint64][]*report.Finding, len(findings))
	for _, f := range findings {
		wanted[f.ICount] = append(wanted[f.ICount], f)
	}
	// Findings sit at stores, non-temporal stores, flushes and fences,
	// all of which CaptureStores covers.
	opts := pmem.Options{Capture: pmem.CaptureStores, Stacks: stacks}
	// The pass re-executes the target, so it runs under the same sandbox
	// as every other execution: a panicking or hanging target must not
	// take the finished analysis down with it. Failures here only
	// degrade debug info; findings stay valid.
	_, _ = execute(app, w, opts, sb, stackResolver(wanted))
}

// stackResolver maps each flagged instruction counter to the findings
// at it, and gives them the stack the engine captured there.
type stackResolver map[uint64][]*report.Finding

// WantsStack implements pmem.StackDemand: a stack at exactly the flagged
// counters.
func (sr stackResolver) WantsStack(ev *pmem.Event) bool {
	_, ok := sr[ev.ICount]
	return ok
}

// OnEvent implements pmem.Hook.
func (sr stackResolver) OnEvent(ev *pmem.Event) {
	for _, f := range sr[ev.ICount] {
		f.Stack = ev.Stack
	}
}
