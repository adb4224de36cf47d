package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mumak/internal/apps/btree"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

// resumeCases are the crash-safety fixtures: every parallelCases target
// (real findings, both campaign modes) crossed with serial and fanned
// out workers. The acceptance contract is the one parallel injection
// already guarantees for scheduling: the report must be byte-identical
// — here, no matter where the previous campaign died.
func resumeCases() []struct {
	name      string
	mk        func() harness.Application
	w         workload.Workload
	stackMode bool
	workers   int
} {
	var out []struct {
		name      string
		mk        func() harness.Application
		w         workload.Workload
		stackMode bool
		workers   int
	}
	for _, tc := range parallelCases() {
		for _, stackMode := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				mode := "counter"
				if stackMode {
					mode = "stack"
				}
				out = append(out, struct {
					name      string
					mk        func() harness.Application
					w         workload.Workload
					stackMode bool
					workers   int
				}{
					name: fmt.Sprintf("%s/%s/workers=%d", tc.name, mode, workers),
					mk:   tc.mk, w: tc.w, stackMode: stackMode, workers: workers,
				})
			}
		}
	}
	return out
}

func journaledConfig(stackMode bool, workers int) core.Config {
	return core.Config{StackMode: stackMode, Workers: workers}
}

// analyzeJournaled runs a campaign journaled in dir, folding whatever
// the journal already holds: a fresh directory starts the campaign, a
// journal left by an earlier run resumes it.
func analyzeJournaled(t *testing.T, mk func() harness.Application, w workload.Workload,
	cfg core.Config, dir string) *core.Result {
	t.Helper()
	j, err := campaign.Open(dir, campaign.Meta{Target: "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	res, err := core.Analyze(mk(), w, cfg)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.JournalError != "" {
		t.Fatalf("journal degraded: %s", res.JournalError)
	}
	return res
}

// copyTruncated clones a journal directory with the log truncated to n
// bytes, simulating a campaign killed mid-append.
func copyTruncated(t *testing.T, src string, n int64) string {
	t.Helper()
	dst := t.TempDir()
	meta, err := os.ReadFile(filepath.Join(src, campaign.MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, campaign.MetaFile), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(src, campaign.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if n > int64(len(log)) {
		n = int64(len(log))
	}
	if err := os.WriteFile(filepath.Join(dst, campaign.JournalFile), log[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// assertResumeMatches checks the crash-safety acceptance contract
// between an uninterrupted reference run and a resumed one: the report
// is byte-identical and the deterministic aggregate counters agree.
func assertResumeMatches(t *testing.T, label string, ref, res *core.Result) {
	t.Helper()
	if got, want := res.Report.Format(true), ref.Report.Format(true); got != want {
		t.Errorf("%s: resumed report differs from the uninterrupted run\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
			label, want, got)
	}
	if res.Injections != ref.Injections || res.Recoveries != ref.Recoveries ||
		res.SkippedFailurePoints != ref.SkippedFailurePoints ||
		len(res.Report.Quarantined) != len(ref.Report.Quarantined) ||
		res.EngineEvents != ref.EngineEvents {
		t.Errorf("%s: counters diverge: injections %d/%d recoveries %d/%d skipped %d/%d quarantined %d/%d events %d/%d",
			label, res.Injections, ref.Injections, res.Recoveries, ref.Recoveries,
			res.SkippedFailurePoints, ref.SkippedFailurePoints,
			len(res.Report.Quarantined), len(ref.Report.Quarantined),
			res.EngineEvents, ref.EngineEvents)
	}
	if res.Interrupted {
		t.Errorf("%s: resumed run reports itself interrupted", label)
	}
}

// TestJournaledRunMatchesUnjournaled: writing the journal must not
// perturb the campaign — same report, same counters.
func TestJournaledRunMatchesUnjournaled(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	plain, err := core.Analyze(mk(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	journaled := analyzeJournaled(t, mk, w, core.Config{}, dir)
	assertResumeMatches(t, "journaled", plain, journaled)
	if journaled.JournalAppends == 0 {
		t.Fatal("campaign consumed failure points but appended no journal records")
	}
	st, err := campaign.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != journaled.JournalAppends {
		t.Fatalf("journal holds %d records, campaign reported %d appends",
			len(st.Records), journaled.JournalAppends)
	}
}

// TestResumeAfterKill is the acceptance scenario: a campaign killed at
// an arbitrary byte — simulated by truncating the journal at a spread
// of offsets, including mid-record — must resume to a final report
// byte-identical to an uninterrupted run. Counter and stack mode,
// serial and parallel.
func TestResumeAfterKill(t *testing.T) {
	for _, tc := range resumeCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := journaledConfig(tc.stackMode, tc.workers)
			ref, err := core.Analyze(tc.mk(), tc.w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Report.Bugs()) == 0 {
				t.Fatal("fixture produced no findings; the identity check is vacuous")
			}
			full := t.TempDir()
			analyzeJournaled(t, tc.mk, tc.w, cfg, full)
			logLen := fileSize(t, filepath.Join(full, campaign.JournalFile))
			// Deterministic spread of kill points: record boundaries are
			// not special-cased — some offsets land mid-record and
			// exercise the torn-tail truncation.
			cuts := []int64{0, 1, logLen / 7, logLen / 3, logLen / 2, logLen - 3}
			for _, cut := range cuts {
				dir := copyTruncated(t, full, cut)
				res := analyzeJournaled(t, tc.mk, tc.w, cfg, dir)
				label := fmt.Sprintf("cut=%d", cut)
				assertResumeMatches(t, label, ref, res)
				if res.ResumedFailurePoints == 0 && cut > 8 {
					t.Errorf("%s: resume folded no journaled verdicts", label)
				}
				// The healed journal must now hold the complete campaign.
				st, err := campaign.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				if want := res.ResumedFailurePoints + res.JournalAppends; len(st.Records) != want {
					t.Errorf("%s: healed journal holds %d records, want %d", label, len(st.Records), want)
				}
			}
		})
	}
}

// TestResumeCompletedCampaign: resuming a journal that already covers
// the whole campaign replays nothing and reproduces the report.
func TestResumeCompletedCampaign(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	dir := t.TempDir()
	ref := analyzeJournaled(t, mk, w, core.Config{}, dir)
	res := analyzeJournaled(t, mk, w, core.Config{}, dir)
	assertResumeMatches(t, "completed", ref, res)
	if res.JournalAppends != 0 {
		t.Errorf("resume of a completed campaign appended %d records", res.JournalAppends)
	}
	if res.ResumedFailurePoints == 0 {
		t.Error("resume of a completed campaign folded no verdicts")
	}
}

// TestResumeRejectsForeignJournal: a journal recorded under a different
// workload diverges from the rebuilt tree and must abort resume with a
// diagnostic instead of corrupting the report.
func TestResumeRejectsForeignJournal(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	dir := t.TempDir()
	analyzeJournaled(t, mk, smallWorkload(21), core.Config{}, dir)
	j, err := campaign.Open(dir, campaign.Meta{Target: "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, err = core.Analyze(mk(), smallWorkload(99), core.Config{Journal: j})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("foreign journal was folded without a diagnostic: err=%v", err)
	}
}

// TestInterruptedCampaign: a pre-closed interrupt channel stops the
// campaign before the first leaf; the partial report is marked, the
// journal stays loadable, and a resumed run completes byte-identically,
// with verdict reuse off and on.
func TestInterruptedCampaign(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, classing := range []bool{false, true} {
				cfg := core.Config{Workers: workers, Classing: classing}
				label := fmt.Sprintf("classing=%v", classing)
				ref, err := core.Analyze(mk(), w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				interrupt := make(chan struct{})
				close(interrupt)
				dir := t.TempDir()
				cut := cfg
				cut.Interrupt = interrupt
				res := analyzeJournaled(t, mk, w, cut, dir)
				if !res.Interrupted {
					t.Fatalf("%s: pre-closed interrupt channel did not mark the run interrupted", label)
				}
				if res.Injections != 0 {
					t.Fatalf("%s: interrupted-before-start campaign injected %d faults", label, res.Injections)
				}
				if !strings.Contains(res.Report.Format(false), "campaign interrupted") {
					t.Fatalf("%s: partial report lacks the interruption marker:\n%s", label, res.Report.Format(false))
				}
				resumed := analyzeJournaled(t, mk, w, cfg, dir)
				assertResumeMatches(t, label+" resumed-after-interrupt", ref, resumed)
			}
		})
	}
}

// TestInterruptMidCampaign interrupts a running campaign from another
// goroutine: the campaign must drain and stop early (strictly fewer
// injections), journal only consumed leaves, and resume to the full
// byte-identical report, with verdict reuse off and on.
func TestInterruptMidCampaign(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	for _, classing := range []bool{false, true} {
		t.Run(fmt.Sprintf("classing=%v", classing), func(t *testing.T) {
			cfg := core.Config{Classing: classing}
			ref, err := core.Analyze(mk(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Find an interruption point that actually lands
			// mid-campaign: a fixed sleep is racy, so interrupt after a
			// bounded delay and accept whatever prefix was consumed — the
			// identity contract must hold for every prefix anyway.
			interrupt := make(chan struct{})
			go func() {
				time.Sleep(20 * time.Millisecond)
				close(interrupt)
			}()
			dir := t.TempDir()
			cut := cfg
			cut.Interrupt = interrupt
			res := analyzeJournaled(t, mk, w, cut, dir)
			if !res.Interrupted {
				// The campaign finished before the timer fired; the
				// journal then already holds the full run and resume
				// degenerates to TestResumeCompletedCampaign, still worth
				// asserting.
				t.Log("campaign completed before the interrupt fired")
			}
			resumed := analyzeJournaled(t, mk, w, cfg, dir)
			assertResumeMatches(t, "resumed-after-mid-interrupt", ref, resumed)
		})
	}
}

// TestBudgetExpiryPartialReport: a campaign whose -budget expires
// mid-flight must leave a well-formed partial report — the
// budget-exhausted marker rendered, counters consistent with the
// journaled prefix — and the flushed journal must resume to the full
// byte-identical report, with verdict reuse off and on.
func TestBudgetExpiryPartialReport(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	for _, classing := range []bool{false, true} {
		t.Run(fmt.Sprintf("classing=%v", classing), func(t *testing.T) {
			cfg := core.Config{Classing: classing}
			ref, err := core.Analyze(mk(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			cut := cfg
			cut.Budget = 30 * time.Millisecond
			res := analyzeJournaled(t, mk, w, cut, dir)
			if res.TimedOut {
				if !strings.Contains(res.Report.Format(false), "analysis budget exhausted") {
					t.Errorf("timed-out report lacks the budget marker:\n%s", res.Report.Format(false))
				}
				st, err := campaign.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(st.Records) != res.JournalAppends {
					t.Errorf("journal holds %d records, campaign reported %d appends",
						len(st.Records), res.JournalAppends)
				}
			} else {
				t.Log("campaign finished inside the tiny budget; resume degenerates to the completed case")
			}
			resumed := analyzeJournaled(t, mk, w, cfg, dir)
			assertResumeMatches(t, "resumed-after-budget-expiry", ref, resumed)
			if resumed.TimedOut || strings.Contains(resumed.Report.Format(false), "budget exhausted") {
				t.Error("resumed run inherited the budget-exhausted marker")
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
