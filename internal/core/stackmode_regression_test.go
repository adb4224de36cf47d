package core

import (
	"testing"
	"time"

	"mumak/internal/apps/btree"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// legacyStackInjector replicates the pre-refactor fpt.Injector's stack
// mode: one replay crashes at the first gated failure-point event whose
// call stack is a not-yet-visited leaf of the shared tree, marking it
// visited as it fires. It exists only as the reference semantics for
// TestStackModeWorkersOneMatchesLegacySerial.
type legacyStackInjector struct {
	tree    *fpt.Tree
	visited map[*fpt.Leaf]bool
	gran    fpt.Granularity
	fired   *fpt.Leaf

	storeSinceLast bool
}

func (in *legacyStackInjector) OnEvent(ev *pmem.Event) {
	isFP := false
	switch in.gran {
	case fpt.GranStore:
		isFP = ev.Op.Kind() == pmem.KindStore
	case fpt.GranPersistency:
		switch ev.Op.Kind() {
		case pmem.KindStore:
			in.storeSinceLast = true
		case pmem.KindFlush, pmem.KindFence:
			isFP = in.storeSinceLast
			in.storeSinceLast = false
			if ev.Op == pmem.OpRMW {
				in.storeSinceLast = true
			}
		}
	}
	if !isFP || ev.Stack == stack.NoID {
		return
	}
	leaf := in.tree.Lookup(ev.Stack)
	if leaf == nil || in.visited[leaf] {
		return
	}
	in.visited[leaf] = true
	in.fired = leaf
	panic(&pmem.CrashSignal{ICount: ev.ICount, Stack: ev.Stack, Reason: "failure point (stack mode)"})
}

// legacyStackSerial replicates the pre-refactor injectStackSerial
// campaign: whole-workload replays, each crashing at the first
// unvisited failure point encountered, until a replay completes without
// firing. Findings go through the same bounded recovery oracle as the
// real campaign.
func legacyStackSerial(t *testing.T, app harness.Application, w workload.Workload,
	tree *fpt.Tree, rep *report.Report, sb sandboxCfg) {
	t.Helper()
	stacks := tree.Stacks()
	visited := make(map[*fpt.Leaf]bool)
	for {
		inj := &legacyStackInjector{tree: tree, visited: visited, gran: fpt.GranPersistency}
		opts := pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks,
			MaxEvents: sb.budget, Deadline: sb.deadline}
		eng, sres := execute(app, w, opts, sb, inj)
		switch {
		case sres.Err != nil:
			t.Fatalf("legacy replay errored: %v", sres.Err)
		case sres.Panic != nil:
			t.Fatalf("legacy replay panicked: %v", sres.Panic.Value)
		case sres.Hang != nil:
			t.Fatal("legacy replay hit the hang watchdog")
		case sres.Sig == nil:
			// No unvisited failure point was reached; done.
			return
		}
		check, ddl := boundedCheck(app, eng.PrefixImage(), sb)
		if ddl {
			t.Fatal("legacy replay hit the deadline")
		}
		if !check.Consistent() {
			kind := report.CrashConsistency
			if check.Verdict == oracle.Hung {
				kind = report.RecoveryHang
			}
			detail := check.Describe()
			if check.Verdict == oracle.Crashed && check.PanicTrace != "" {
				detail += "\nrecovery trace:\n" + truncate(check.PanicTrace, 800)
			}
			rep.Add(report.Finding{
				Kind:   kind,
				ICount: sres.Sig.ICount,
				Stack:  inj.fired.Stack,
				Detail: detail,
			})
		}
	}
}

// TestStackModeWorkersOneMatchesLegacySerial pins the refactor's
// compatibility contract: the per-leaf targeted stack-mode campaign —
// serial and parallel — produces a report byte-identical to the
// pre-refactor whole-run mutating serial loop. The legacy loop fired
// leaves in first-encounter order, which for a deterministic target is
// exactly the FirstICount order the campaign walks.
func TestStackModeWorkersOneMatchesLegacySerial(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSeeded(btree.BugCountOutsideTx)) }
	w := testWorkload()

	// Legacy reference campaign.
	tree, stacks := buildTree(t, mk(), w)
	refRep := &report.Report{Target: "test", Tool: "test", Stacks: stacks}
	sb := Config{}.sandbox(time.Time{})
	legacyStackSerial(t, mk(), w, tree, refRep, sb)
	want := refRep.Format(true)
	if len(refRep.Bugs()) == 0 {
		t.Fatal("legacy campaign found no bugs; the comparison is vacuous")
	}

	// The refactored campaign, serial (-workers=1) and fanned out.
	for _, workers := range []int{1, 4} {
		tree, stacks := buildTree(t, mk(), w)
		rep := &report.Report{Target: "test", Tool: "test", Stacks: stacks}
		res := &Result{Report: rep}
		cfg := Config{StackMode: true, Workers: workers}
		timedOut, err := injectTree(mk(), w, tree, cfg, rep, res, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if timedOut {
			t.Fatal("unexpected timeout")
		}
		if got := rep.Format(true); got != want {
			t.Errorf("workers=%d: refactored stack mode diverges from the legacy serial path\n--- legacy ---\n%s\n--- refactored ---\n%s",
				workers, want, got)
		}
		if res.SkippedFailurePoints != 0 || res.InjectionAborted {
			t.Errorf("workers=%d: refactored campaign lost coverage: skipped=%d aborted=%v",
				workers, res.SkippedFailurePoints, res.InjectionAborted)
		}
		if res.Injections != tree.Len() {
			t.Errorf("workers=%d: %d of %d failure points injected", workers, res.Injections, tree.Len())
		}
	}
}
