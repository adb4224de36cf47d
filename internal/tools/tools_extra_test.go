package tools_test

import (
	"errors"
	"testing"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/apps/hashatomic"
	"mumak/internal/apps/levelhash"
	"mumak/internal/apps/montageht"
	"mumak/internal/bugs"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/tools/jaaru"
	"mumak/internal/tools/pmdebugger"
	"mumak/internal/tools/pmemcheck"
	"mumak/internal/tools/pmtest"
	"mumak/internal/tools/xfdetector"
	"mumak/internal/tools/yat"
	"mumak/internal/workload"
)

func TestJaaruFindsFusedFenceBugLazily(t *testing.T) {
	cfg := apps.Config{PoolSize: 1 << 20, Bugs: bugs.Enable(hashatomic.BugInsertSingleFence)}
	w := workload.Generate(workload.Config{N: 20, Seed: 1, Keyspace: 8, PutFrac: 1})
	res, err := jaaru.New().Analyze(hashatomic.New(cfg), w, tools.Config{Budget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("budget expired after %d states", res.Explored)
	}
	if !hasKind(res.Report, report.CrashConsistency) {
		t.Fatal("Jaaru missed the fused-fence bug")
	}
}

func TestJaaruLazierThanYat(t *testing.T) {
	// The lazy read-set restriction must explore far fewer states than
	// Yat's eager enumeration on the same input.
	cfg := apps.Config{PoolSize: 1 << 20}
	w := workload.Generate(workload.Config{N: 15, Seed: 2, Keyspace: 6, PutFrac: 1})
	jr, err := jaaru.New().Analyze(hashatomic.New(cfg), w, tools.Config{Budget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if jr.TimedOut {
		t.Fatalf("budget expired after %d states", jr.Explored)
	}
	// Compare against the eager bound: sum of 2^min(units,10) per fence
	// is what Yat would explore; the lazy version should undercut it
	// clearly. We use explored-state counts as the proxy.
	if jr.Explored == 0 {
		t.Fatal("Jaaru explored nothing")
	}
	// A loose but meaningful bound: lazy exploration on this workload
	// stays in the hundreds while eager enumeration is in the
	// thousands.
	if jr.Explored > 4000 {
		t.Fatalf("Jaaru explored %d states; the lazy restriction is not working", jr.Explored)
	}
}

func TestPmemcheckFindsUnpersistedStore(t *testing.T) {
	// The transient-data knob writes PM that is never persisted;
	// pmemcheck flags it without distinguishing it from a forgotten
	// persist (✓† in Table 1).
	cfg := cfgSPT("btree/pf-03")
	res, err := pmemcheck.New().Analyze(btree.New(cfg), tinyWorkload(11), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(res.Report, report.Durability) {
		t.Fatal("pmemcheck missed the never-persisted store")
	}
}

func TestPmemcheckCleanTarget(t *testing.T) {
	res, err := pmemcheck.New().Analyze(btree.New(cfgSPT()), tinyWorkload(12), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hasKind(res.Report, report.Durability) {
		t.Fatalf("false positive on clean target:\n%s", res.Report.Format(true))
	}
}

func TestPmemcheckRejectsMontage(t *testing.T) {
	app := montageht.New(apps.Config{PoolSize: 1 << 20})
	_, err := pmemcheck.New().Analyze(app, tinyWorkload(13), tools.Config{})
	if !errors.Is(err, pmemcheck.ErrNoAnnotations) {
		t.Fatalf("err = %v, want ErrNoAnnotations", err)
	}
}

func TestPMTestVerifiesAssertions(t *testing.T) {
	// Clean target: every library persist assertion holds.
	res, err := pmtest.New().Analyze(btree.New(cfgSPT()), tinyWorkload(14), tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hasKind(res.Report, report.CrashConsistency) {
		t.Fatalf("assertion failures on clean target:\n%s", res.Report.Format(true))
	}
	if res.Explored == 0 {
		t.Fatal("no assertions checked")
	}
}

// TestPMTestLibraryAssertionsMissTagBeforeKV pins what the ✓* rows of
// the assertion-based tools mean: levelhash's tag-before-kv bug sets
// and persists a slot's tag before its key and value are written, and
// PMTest's library-level persist assertions all hold on it. Catching
// the class needs application-level asserts, which Mumak does without.
func TestPMTestLibraryAssertionsMissTagBeforeKV(t *testing.T) {
	cfg := apps.Config{PoolSize: 2 << 20, WithRecovery: true,
		Bugs: bugs.Enable(bugs.ID("levelhash/c11-tag-before-kv"))}
	w := workload.Generate(workload.Config{N: 200, Seed: 15, Keyspace: 80, PutFrac: 1})
	res, err := pmtest.New().Analyze(levelhash.New(cfg), w, tools.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored == 0 {
		t.Fatal("no assertions checked")
	}
	if len(res.Report.Findings) != 0 {
		t.Fatalf("library-level assertions flagged the seeded bug:\n%s", res.Report.Format(true))
	}
}

func TestPMTestRejectsUnannotatedTargets(t *testing.T) {
	app := montageht.New(apps.Config{PoolSize: 1 << 20})
	_, err := pmtest.New().Analyze(app, tinyWorkload(16), tools.Config{})
	if !errors.Is(err, pmtest.ErrNoAssertions) {
		t.Fatalf("err = %v, want ErrNoAssertions", err)
	}
}

// crashingApp is a target whose workload run ends in an injected crash.
type crashingApp struct{}

func (crashingApp) Name() string               { return "crashing" }
func (crashingApp) PoolSize() int              { return 1 << 20 }
func (crashingApp) Setup(*pmem.Engine) error   { return nil }
func (crashingApp) Recover(*pmem.Engine) error { return nil }
func (crashingApp) Run(*pmem.Engine, workload.Workload) error {
	panic(&pmem.CrashSignal{ICount: 7, Reason: "crash in the pre-failure run"})
}

// TestToolsReturnPreFailureCrash: a tool whose pre-failure run ends in a
// *pmem.CrashSignal returns the signal as its error, never a nil result
// with a nil error.
func TestToolsReturnPreFailureCrash(t *testing.T) {
	for _, tool := range []tools.Tool{
		yat.New(), jaaru.New(), xfdetector.New(), pmemcheck.New(), pmtest.New(), pmdebugger.New(),
	} {
		t.Run(tool.Name(), func(t *testing.T) {
			res, err := tool.Analyze(crashingApp{}, tinyWorkload(1), tools.Config{})
			var sig *pmem.CrashSignal
			if res != nil || !errors.As(err, &sig) || sig.ICount != 7 {
				t.Fatalf("Analyze = (%v, %v), want (nil, the crash signal)", res, err)
			}
		})
	}
}
