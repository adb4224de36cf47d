package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// hangingPassApp runs its target normally in the instrumented run and,
// in every later execution, loops on PM after the first half of the
// workload, so a pass serves the early leaves and then runs until a
// watchdog stops it.
type hangingPassApp struct {
	harness.Application
	runs atomic.Int64
}

func (a *hangingPassApp) Run(e *pmem.Engine, w workload.Workload) error {
	if a.runs.Add(1) == 1 {
		return a.Application.Run(e, w)
	}
	half := workload.Workload{Ops: w.Ops[:len(w.Ops)/2], Seed: w.Seed}
	if err := a.Application.Run(e, half); err != nil {
		return err
	}
	for {
		e.Load64(0)
	}
}

// brokenPassApp fails every execution after the instrumented run before
// any PM instruction.
type brokenPassApp struct {
	harness.Application
	runs atomic.Int64
}

func (a *brokenPassApp) Setup(e *pmem.Engine) error {
	if a.runs.Add(1) > 1 {
		return errors.New("seeded pass failure")
	}
	return a.Application.Setup(e)
}

// campaignGoroutines returns the stacks of the goroutines a campaign
// started that are still running: its workers and its pass. A goroutine
// inside its deferred WaitGroup.Done has ended its work and is
// returning: the Wait it released may run first.
func campaignGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		ours := strings.Contains(g, "mumak/internal/core.(*pool).work") ||
			strings.Contains(g, "mumak/internal/core.injectParallel")
		if ours && !strings.Contains(g, "sync.(*WaitGroup).Done") {
			out = append(out, g)
		}
	}
	return out
}

// TestStoppedCampaignEndsItsPass: a stack-mode campaign that stops
// early, because the budget cut its pass or the merge loop gave up
// after repeated failed passes, returns from Analyze with its pass and
// workers ended.
func TestStoppedCampaignEndsItsPass(t *testing.T) {
	w := testWorkload()
	t.Run("budget", func(t *testing.T) {
		app := &hangingPassApp{Application: testTarget()}
		res, err := Analyze(app, w, Config{StackMode: true, Workers: 2, Budget: time.Second,
			HangBudget: 1 << 40, DisableTraceAnalysis: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.TimedOut || res.Injections == 0 || res.Injections >= res.Tree.Len() {
			t.Fatalf("timed out %v after %d of %d injections; want the budget to cut the pass after it served some leaves",
				res.TimedOut, res.Injections, res.Tree.Len())
		}
		if left := campaignGoroutines(); len(left) > 0 {
			t.Fatalf("%d campaign goroutine(s) outlived Analyze:\n%s", len(left), strings.Join(left, "\n\n"))
		}
	})
	t.Run("no-progress", func(t *testing.T) {
		app := &brokenPassApp{Application: testTarget()}
		res, err := Analyze(app, w, Config{StackMode: true, Workers: 2, DisableTraceAnalysis: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.InjectionAborted || res.SkippedFailurePoints != maxNoProgress || res.Tree.Len() <= maxNoProgress {
			t.Fatalf("aborted %v after %d skipped of %d failure points; want an abort after %d",
				res.InjectionAborted, res.SkippedFailurePoints, res.Tree.Len(), maxNoProgress)
		}
		if left := campaignGoroutines(); len(left) > 0 {
			t.Fatalf("%d campaign goroutine(s) outlived Analyze:\n%s", len(left), strings.Join(left, "\n\n"))
		}
	})
}
