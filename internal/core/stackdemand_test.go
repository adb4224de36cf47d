package core_test

import (
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// probeApp wraps an application to watch the executions a campaign
// makes: it counts Run calls, and attaches hook (if any) to the engine
// of the first execution before Setup emits anything, so the hook sees
// exactly the instrumented run's event stream.
type probeApp struct {
	harness.Application
	hook   pmem.Hook
	setups int
	runs   int
}

func (p *probeApp) Setup(e *pmem.Engine) error {
	p.setups++
	if p.setups == 1 && p.hook != nil {
		e.AttachHook(p.hook)
	}
	return p.Application.Setup(e)
}

func (p *probeApp) Run(e *pmem.Engine, w workload.Workload) error {
	p.runs++
	return p.Application.Run(e, w)
}

// candidateCounter counts failure-point candidates at persistency
// granularity with its own copy of the §4.1 rule (a flush or fence
// after a store; an RMW re-arms), and every flush and fence. It never
// asks for a stack, so attaching it does not change what is captured.
type candidateCounter struct {
	armed       bool
	candidates  int
	persistency int
}

func (c *candidateCounter) WantsStack(*pmem.Event) bool { return false }

func (c *candidateCounter) OnEvent(ev *pmem.Event) {
	switch ev.Op {
	case pmem.OpStore, pmem.OpNTStore:
		c.armed = true
	case pmem.OpLoad:
	default:
		c.persistency++
		if c.armed {
			c.candidates++
		}
		c.armed = ev.Op == pmem.OpRMW
	}
}

// A campaign walks call stacks only where the failure point tree needs
// one: phase 1 captures at failure-point candidates and nowhere else,
// counter-mode replays capture nothing, and phase 3 has no reported
// finding to resolve. Capturing at every flush and fence instead would
// make the counts differ by far.
func TestCapturesMatchFailurePointCandidates(t *testing.T) {
	counter := &candidateCounter{}
	app := &probeApp{
		Application: btree.New(apps.Config{SPT: true, PoolSize: 8 << 20, WithRecovery: true}),
		hook:        counter,
	}
	w := workload.Generate(workload.Config{N: 3000, Seed: 5})
	res, err := core.Analyze(app, w, core.Config{Classing: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections == 0 || res.EquivClasses == 0 {
		t.Fatalf("campaign injected %d faults over %d classes; want a classed campaign",
			res.Injections, res.EquivClasses)
	}
	got := res.Report.Stacks.Captures()
	if got != uint64(counter.candidates) {
		t.Fatalf("campaign captured %d stacks for %d failure-point candidates", got, counter.candidates)
	}
	if app.runs != 1 {
		t.Fatalf("campaign executed the workload %d times, want 1 (the instrumented run)", app.runs)
	}
	if counter.persistency <= 2*counter.candidates {
		t.Fatalf("only %d flushes and fences for %d candidates: the workload does not tell the two apart",
			counter.persistency, counter.candidates)
	}
}

// stackLog is a hook without a stack demand that records the stack of
// every non-load instruction it sees.
type stackLog struct {
	ops    []pmem.Opcode
	counts []uint64
	stacks []stack.ID
}

func (l *stackLog) OnEvent(ev *pmem.Event) {
	if ev.Op != pmem.OpLoad {
		l.ops = append(l.ops, ev.Op)
		l.counts = append(l.counts, ev.ICount)
		l.stacks = append(l.stacks, ev.Stack)
	}
}

// A hook without a stack demand keeps the capture-class contract: next
// to the builder, which asks only at candidates, it still gets a stack
// on every flush and fence.
func TestUndemandingHookGetsEveryStack(t *testing.T) {
	app := btree.New(apps.Config{SPT: true, PoolSize: 1 << 20})
	w := workload.Generate(workload.Config{N: 300, Seed: 9})
	stacks := stack.NewTable()
	tree := fpt.New(stacks)
	log := &stackLog{}
	_, sig, err := harness.Execute(app, w,
		pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks},
		fpt.NewBuilder(tree, fpt.GranPersistency), log)
	if err != nil || sig != nil {
		t.Fatalf("run: sig %v, err %v", sig, err)
	}
	persistency := 0
	for i, op := range log.ops {
		if !op.IsPersistency() {
			if log.stacks[i] != stack.NoID {
				t.Fatalf("event %d (%s) carries a stack outside the capture class", i, op)
			}
			continue
		}
		persistency++
		if log.stacks[i] == stack.NoID {
			t.Fatalf("event %d (%s at instruction %d) has no stack", i, op, log.counts[i])
		}
	}
	if got := stacks.Captures(); got != uint64(persistency) {
		t.Fatalf("%d captures for %d flushes and fences", got, persistency)
	}
	if tree.Len() == 0 {
		t.Fatal("the builder built no failure points")
	}
}

// Phase 3 re-executes the workload to resolve stacks only for findings
// the report will contain. Counter-mode injections judge phase-1 images
// and the oracle calls only Recover, so every Run past the first is that
// re-execution.
func TestPhase3RunsOnlyForReportedFindings(t *testing.T) {
	w := workload.Generate(workload.Config{N: 400, Seed: 3})
	analyze := func(t *testing.T, keepWarnings bool, ids ...bugs.ID) (*core.Result, int) {
		t.Helper()
		app := &probeApp{Application: btree.New(apps.Config{
			SPT: true, PoolSize: 8 << 20, WithRecovery: true, Bugs: bugs.Enable(ids...),
		})}
		res, err := core.Analyze(app, w, core.Config{Classing: true, Workers: 1, KeepWarnings: keepWarnings})
		if err != nil {
			t.Fatal(err)
		}
		if res.Recoveries == 0 {
			t.Fatal("the campaign judged no crash image")
		}
		for _, leaf := range res.Tree.Leaves() {
			if leaf.Image == nil {
				t.Fatalf("failure point #%d has no phase-1 image", leaf.ID)
			}
		}
		return res, app.runs
	}

	t.Run("clean", func(t *testing.T) {
		_, runs := analyze(t, false)
		if runs != 1 {
			t.Fatalf("Run called %d times, want 1: no reported finding needs a stack", runs)
		}
	})

	t.Run("warnings", func(t *testing.T) {
		res, runs := analyze(t, true)
		warns := res.Report.Warnings()
		if len(warns) == 0 {
			t.Fatal("the workload raised no warnings")
		}
		if runs != 2 {
			t.Fatalf("Run called %d times, want 2", runs)
		}
		for _, f := range warns {
			if len(res.Report.Stacks.Frames(f.Stack)) == 0 {
				t.Fatalf("warning %s at instruction %d has no stack", f.Kind, f.ICount)
			}
		}
	})

	t.Run("redundant-flush", func(t *testing.T) {
		res, runs := analyze(t, false, "btree/pf-01")
		if runs != 2 {
			t.Fatalf("Run called %d times, want 2", runs)
		}
		found := false
		for _, f := range res.Report.Bugs() {
			if f.Kind != report.RedundantFlush {
				continue
			}
			found = true
			if len(res.Report.Stacks.Frames(f.Stack)) == 0 {
				t.Fatalf("redundant flush at instruction %d has no stack", f.ICount)
			}
		}
		if !found {
			t.Fatalf("seeded redundant flush not reported:\n%s", res.Report.Format(false))
		}
	})
}
