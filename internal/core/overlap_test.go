package core_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mumak/internal/apps/btree"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// overlapWait bounds how long an overlapApp's instrumented run waits
// for a recovery check to begin.
const overlapWait = 10 * time.Second

// overlapApp is a seeded-bug btree whose Run executes the workload in
// two halves. With gate set, its first Run — the instrumented run —
// waits between the halves until a recovery check has begun, and then
// calls during, if set. A wait that outlasts overlapWait is recorded in
// stalled instead of blocking forever. It counts the recovery runs it
// is asked for.
type overlapApp struct {
	harness.Application
	gate       bool
	during     func()
	runs       atomic.Int64
	recoveries atomic.Int64
	recovering chan struct{}
	once       sync.Once
	stalled    atomic.Bool
}

func newOverlapApp(gate bool) *overlapApp {
	return &overlapApp{
		Application: btree.New(cfgSPT(btree.BugCountOutsideTx)),
		gate:        gate,
		recovering:  make(chan struct{}),
	}
}

func (a *overlapApp) Recover(e *pmem.Engine) error {
	a.recoveries.Add(1)
	a.once.Do(func() { close(a.recovering) })
	return a.Application.Recover(e)
}

func (a *overlapApp) Run(e *pmem.Engine, w workload.Workload) error {
	half := len(w.Ops) / 2
	if err := a.Application.Run(e, workload.Workload{Ops: w.Ops[:half], Seed: w.Seed}); err != nil {
		return err
	}
	if a.gate && a.runs.Add(1) == 1 {
		select {
		case <-a.recovering:
		case <-time.After(overlapWait):
			a.stalled.Store(true)
		}
		if a.during != nil {
			a.during()
		}
	}
	return a.Application.Run(e, workload.Workload{Ops: w.Ops[half:], Seed: w.Seed})
}

// TestRecoveryChecksOverlapPhase1: a counter-mode campaign judges the
// images phase 1 hands over while phase 1 is still running. The
// fixture's instrumented run stops halfway until a recovery check has
// begun, which only a campaign running beside phase 1 can start, and
// the report and counters equal those of the same run without the wait.
func TestRecoveryChecksOverlapPhase1(t *testing.T) {
	w := smallWorkload(21)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := core.Config{Workers: workers, Classing: true, KeepWarnings: true}
			ref, err := core.Analyze(newOverlapApp(false), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Report.Bugs()) == 0 {
				t.Fatal("fixture produced no findings; the identity check is vacuous")
			}
			app := newOverlapApp(true)
			res, err := core.Analyze(app, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if app.stalled.Load() {
				t.Fatalf("the instrumented run waited %s and no recovery check began: the campaign did not start beside phase 1", overlapWait)
			}
			if got, want := res.Report.Format(true), ref.Report.Format(true); got != want {
				t.Errorf("report differs from the run without the wait\n--- without ---\n%s\n--- with ---\n%s", want, got)
			}
			if res.Injections != ref.Injections || res.Recoveries != ref.Recoveries ||
				res.InheritedVerdicts != ref.InheritedVerdicts || res.EquivClasses != ref.EquivClasses ||
				res.EngineEvents != ref.EngineEvents || res.TraceLen != ref.TraceLen {
				t.Errorf("counters diverge: injections %d/%d recoveries %d/%d inherited %d/%d classes %d/%d events %d/%d trace %d/%d",
					res.Injections, ref.Injections, res.Recoveries, ref.Recoveries,
					res.InheritedVerdicts, ref.InheritedVerdicts, res.EquivClasses, ref.EquivClasses,
					res.EngineEvents, ref.EngineEvents, res.TraceLen, ref.TraceLen)
			}
			if res.EarlyRecoveries > res.Recoveries || res.CampaignWorkers > workers {
				t.Errorf("%d early recoveries of %d, %d workers of %d", res.EarlyRecoveries, res.Recoveries,
					res.CampaignWorkers, workers)
			}
		})
	}
}

// TestStopDuringPhase1: an interruption or a budget expiry while phase 1
// runs, after the workers have begun judging, ends the campaign as it
// would if nothing had been judged yet: the run is marked Interrupted
// or TimedOut, no leaf is consumed, no journal record is written, and
// no goroutine of the campaign outlives Analyze.
func TestStopDuringPhase1(t *testing.T) {
	w := smallWorkload(21)
	const budget = 300 * time.Millisecond
	for _, workers := range []int{1, 4} {
		for _, stop := range []string{"interrupt", "budget"} {
			t.Run(fmt.Sprintf("%s/workers=%d", stop, workers), func(t *testing.T) {
				app := newOverlapApp(true)
				cfg := core.Config{Workers: workers, Classing: true}
				if stop == "interrupt" {
					interrupt := make(chan struct{})
					cfg.Interrupt = interrupt
					app.during = func() { close(interrupt) }
				} else {
					// Analyze starts before Run, so the budget has expired
					// once Run has slept that long.
					cfg.Budget = budget
					app.during = func() { time.Sleep(budget) }
				}
				dir := t.TempDir()
				before := runtime.NumGoroutine()
				res := analyzeJournaled(t, func() harness.Application { return app }, w, cfg, dir)
				if app.stalled.Load() {
					t.Fatalf("no recovery check began within %s of phase 1's wait", overlapWait)
				}
				if stop == "interrupt" && !res.Interrupted || stop == "budget" && !res.TimedOut {
					t.Errorf("interrupted %v, timed out %v after a stop by %s", res.Interrupted, res.TimedOut, stop)
				}
				if n := res.Injections + res.SkippedFailurePoints; n != 0 {
					t.Errorf("%d leaves consumed after a stop during phase 1, want 0", n)
				}
				st, err := campaign.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				if res.JournalAppends != 0 || len(st.Records) != 0 {
					t.Errorf("%d journal appends, %d records on disk, want none", res.JournalAppends, len(st.Records))
				}
				// A worker's goroutine may still be returning from its
				// deferred WaitGroup.Done.
				for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%d goroutines after Analyze, %d before", n, before)
				}
			})
		}
	}
}

// TestResumeJudgesNoFoldedLeaf: a campaign resumed from a journal judges
// only the leaves past the journaled prefix, although its workers start
// while phase 1 is still rebuilding the tree. Its counters equal an
// uninterrupted run's, and the recovery runs it asks the target for are
// exactly the Recoveries the journal did not already hold.
func TestResumeJudgesNoFoldedLeaf(t *testing.T) {
	w := smallWorkload(21)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := core.Config{Workers: workers, Classing: true}
			full := t.TempDir()
			refApp := newOverlapApp(false)
			ref := analyzeJournaled(t, func() harness.Application { return refApp }, w, cfg, full)
			if int(refApp.recoveries.Load()) != ref.Recoveries {
				t.Fatalf("uninterrupted run asked for %d recovery runs, Recoveries = %d", refApp.recoveries.Load(), ref.Recoveries)
			}
			dir := copyTruncated(t, full, fileSize(t, filepath.Join(full, campaign.JournalFile))/2)
			st, err := campaign.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			journaled := 0
			for _, rec := range st.Records {
				if rec.Injected && rec.Source == campaign.Replayed {
					journaled++
				}
			}
			if len(st.Records) == 0 || journaled == 0 {
				t.Fatalf("truncated journal holds %d records, %d of them judged; the check is vacuous", len(st.Records), journaled)
			}
			app := newOverlapApp(false)
			res := analyzeJournaled(t, func() harness.Application { return app }, w, cfg, dir)
			assertResumeMatches(t, "resumed", ref, res)
			if res.ResumedFailurePoints != len(st.Records) {
				t.Errorf("resume folded %d verdicts, the journal held %d", res.ResumedFailurePoints, len(st.Records))
			}
			if got, want := int(app.recoveries.Load()), ref.Recoveries-journaled; got != want {
				t.Errorf("resumed run asked for %d recovery runs, want %d: Recoveries %d minus %d journaled",
					got, want, ref.Recoveries, journaled)
			}
		})
	}
}
