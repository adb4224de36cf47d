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
// with minimal instrumentation that captures call stacks exactly at the
// flagged counters. Analyze passes only the findings its report keeps,
// so a run without any skips the re-execution. The pass relies on the
// target's determinism, like the counter-mode injector.
func resolveStacks(app harness.Application, w workload.Workload,
	stacks *stack.Table, findings []*report.Finding, sb sandboxCfg) {

	if len(findings) == 0 {
		return
	}
	wanted := make(map[uint64][]*report.Finding, len(findings))
	for _, f := range findings {
		f.Stack = stack.NoID
		wanted[f.ICount] = append(wanted[f.ICount], f)
	}
	hook := &stackResolver{wanted: wanted, stacks: stacks}
	// The pass re-executes the target, so it runs under the same sandbox
	// as every other execution: a panicking or hanging target must not
	// take the finished analysis down with it. Failures here only
	// degrade debug info; findings stay valid.
	_, _ = execute(app, w, pmem.Options{}, sb, hook)
}

type stackResolver struct {
	wanted map[uint64][]*report.Finding
	stacks *stack.Table
}

// OnEvent implements pmem.Hook.
func (sr *stackResolver) OnEvent(ev *pmem.Event) {
	fs, ok := sr.wanted[ev.ICount]
	if !ok {
		return
	}
	id := sr.stacks.Capture(1)
	for _, f := range fs {
		f.Stack = id
	}
}
