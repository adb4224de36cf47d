// Package tools defines the common contract of the baseline PM bug
// detectors Mumak is evaluated against (§3, §6.1): XFDetector,
// PMDebugger, Agamotto, Witcher and Yat, plus Jaaru, pmemcheck and
// PMTest, each reimplemented in its own subpackage with the algorithmic
// character described in the respective papers.
//
// # Memory and cost model
//
// The baselines run on the same simulated machine as Mumak, so what a
// run costs is its own algorithm: the executions it instruments, the
// recoveries it runs and the oracles it applies. Building crash states
// is not part of it. Every crash state a tool explores is a pmem.Image,
// a frozen copy-on-write page table that shares every page it does not
// write with the trace.Cursor or engine it came from and carries its
// content hash, so a state costs the pages its own writes touch, never a
// pool copy, and a recovery engine starts from it in O(1). Where the
// original tools pay for full pool copies, the reimplementations model
// that cost instead of paying it:
//
//   - XFDetector builds each failure point's durable state from one
//     recorded trace of the pre-failure run (trace.Cursor) and does not
//     re-execute that run per failure point; only the post-failure
//     execution runs per failure point, under its shadow-memory checker.
//   - Witcher counts each pre-generated crash image at full pool size
//     against Config.MemBudget, and Agamotto caps its frontier as if each
//     state held a full pool, as a KLEE state does. Their images in fact
//     share pages, so their out-of-memory outcomes and frontier sizes
//     model the originals' memory, not this process's.
//
// Table 2's time, CPU and heap columns are measured around Analyze by
// its caller (package experiments), never inside a tool. A tool reports
// only the persistent memory it keeps for its own analysis state
// (Result.PMExtraBytes).
//
// # The harness
//
// Three helpers are the harness the baselines start from. Begin returns
// the run's Result, with an empty report under the tool's name, and its
// budget check. Run is the pre-failure run: Setup and the workload on a
// fresh engine with the tool's hooks attached. Record is Run with a
// trace.Recorder attached once Setup returns, for the tools that explore
// crash states of a recorded trace (Yat, Jaaru, XFDetector): they
// explore the workload, not pool creation, as the original XFDetector
// injects failures only inside the region of interest its user marks.
// Witcher and Agamotto drive the key-value interface themselves and use
// only Begin. So what part of the execution a baseline observes and
// explores is decided here, in Run and Record, for every tool that has
// a pre-failure run.
//
// Baseline findings carry no stack (stack.NoID): none of the tools
// reports a bug path (Table 3), so their reports have no stack table,
// and Report.Unique tells their findings apart by address.
package tools

import (
	"time"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/trace"
	"mumak/internal/workload"
)

// Config bounds a tool run, mirroring the evaluation's 12-hour wall
// limit and the machine's physical memory.
type Config struct {
	// Budget is the wall-clock limit; zero means unbounded.
	Budget time.Duration
	// MemBudget is the volatile-memory limit in bytes; a tool that
	// would exceed it aborts with OOM = true, as Witcher did against
	// the machine's 256 GB. Zero means unbounded.
	MemBudget uint64
}

// Result is a tool run's outcome.
type Result struct {
	// Report holds the findings.
	Report *report.Report
	// TimedOut and OOM mark budget exhaustion (the ∞ bars of Fig 4).
	TimedOut bool
	OOM      bool
	// Explored counts tool-specific work units (failure points,
	// symbolic states, crash images).
	Explored int
	// EngineEvents counts simulated PM instructions.
	EngineEvents uint64
	// PMExtraBytes is the persistent memory the tool keeps for its own
	// analysis state beyond the target's pools (XFDetector's shadow
	// memory): the PM column of Table 2.
	PMExtraBytes uint64
}

// Tool is a PM bug detector operating on the same black-box inputs as
// Mumak (tools that additionally require annotations or drivers consume
// them through the library annotation channel and harness.KVApplication).
type Tool interface {
	// Name identifies the tool in reports and figures.
	Name() string
	// Analyze runs the tool against the target.
	Analyze(app harness.Application, w workload.Workload, cfg Config) (*Result, error)
}

// Begin starts a run of the tool called name on app. It returns the
// run's Result, holding an empty report, and the run's budget check,
// which reports whether cfg.Budget has run out since Begin; a zero
// budget never runs out.
func Begin(name string, app harness.Application, cfg Config) (*Result, func() bool) {
	res := &Result{Report: &report.Report{Target: app.Name(), Tool: name}}
	if cfg.Budget <= 0 {
		return res, func() bool { return false }
	}
	deadline := time.Now().Add(cfg.Budget)
	return res, func() bool { return time.Now().After(deadline) }
}

// Run is a baseline's pre-failure run: Setup and the workload on a fresh
// engine with the hooks attached, through harness.Execute, so a panic of
// the target itself propagates. It adds the run's events to
// res.EngineEvents and returns an injected crash as its error.
func Run(app harness.Application, w workload.Workload, res *Result, hooks ...pmem.Hook) error {
	eng, sig, err := harness.Execute(app, w, pmem.Options{}, hooks...)
	if err != nil {
		return err
	}
	if sig != nil {
		return sig
	}
	res.EngineEvents += eng.Events()
	return nil
}

// Record is Run with a trace.Recorder attached once Setup returns, and
// returns the recorded trace; loads selects whether it records load
// events. The trace holds the workload only and starts from the pool
// Setup left, so no crash state explored from it falls inside pool
// creation.
func Record(app harness.Application, w workload.Workload, res *Result, loads bool) (*trace.Trace, error) {
	rec := trace.NewRecorder()
	rec.RecordLoads = loads
	if err := Run(hookAfterSetup{app, rec}, w, res); err != nil {
		return nil, err
	}
	return &rec.T, nil
}

// hookAfterSetup is an application that attaches hook to its engine
// once its Setup returns.
type hookAfterSetup struct {
	harness.Application
	hook pmem.Hook
}

// Setup implements harness.Application.
func (a hookAfterSetup) Setup(e *pmem.Engine) error {
	if err := a.Application.Setup(e); err != nil {
		return err
	}
	e.AttachHook(a.hook)
	return nil
}
