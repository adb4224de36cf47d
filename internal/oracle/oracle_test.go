package oracle_test

import (
	"errors"
	"strings"
	"testing"

	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// fakeApp recovers according to its mode.
type fakeApp struct{ mode int }

func (f *fakeApp) Name() string  { return "fake" }
func (f *fakeApp) PoolSize() int { return 4096 }
func (f *fakeApp) Setup(e *pmem.Engine) error {
	return nil
}
func (f *fakeApp) Run(e *pmem.Engine, w workload.Workload) error { return nil }
func (f *fakeApp) Recover(e *pmem.Engine) error {
	switch f.mode {
	case 1:
		return errors.New("state invalid")
	case 2:
		panic("segfault analogue")
	}
	// Mode 0 also reads from the image to prove the engine works.
	_ = e.Load64(0)
	return nil
}

func img() *pmem.Image {
	e := pmem.NewEngine(pmem.Options{PoolSize: 4096})
	e.Store64(0, 7)
	e.CLFlush(0)
	return e.PrefixImage()
}

func TestConsistentOutcome(t *testing.T) {
	out := oracle.Check(&fakeApp{mode: 0}, img())
	if !out.Consistent() || out.Verdict != oracle.Consistent {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Engine == nil || out.Engine.Load64(0) != 7 {
		t.Fatal("post-recovery engine not initialised from the image")
	}
}

func TestUnrecoverableOutcome(t *testing.T) {
	out := oracle.Check(&fakeApp{mode: 1}, img())
	if out.Consistent() || out.Verdict != oracle.Unrecoverable {
		t.Fatalf("outcome = %+v", out)
	}
	if !strings.Contains(out.Describe(), "state invalid") {
		t.Errorf("describe = %q", out.Describe())
	}
}

func TestCrashedOutcomeCapturesTrace(t *testing.T) {
	out := oracle.Check(&fakeApp{mode: 2}, img())
	if out.Verdict != oracle.Crashed {
		t.Fatalf("verdict = %v", out.Verdict)
	}
	if out.PanicValue != "segfault analogue" {
		t.Errorf("panic value = %v", out.PanicValue)
	}
	if !strings.Contains(out.PanicTrace, "Recover") {
		t.Error("panic trace lacks the recovery call trace (§4.1 debug info)")
	}
}

func TestRecoveryCannotMutateSourceImage(t *testing.T) {
	src := img()
	before := src.Bytes()[0]
	_ = oracle.Check(&fakeApp{mode: 0}, src)
	if src.Bytes()[0] != before {
		t.Fatal("oracle mutated the crash image")
	}
}
