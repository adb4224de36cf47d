// Package apptest provides shared test machinery for the applications
// under test: key-value semantics checking against a model, and
// exhaustive crash-point probing with the recovery oracle.
package apptest

import (
	"testing"

	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// KVSemantics runs the workload against the application and an in-memory
// model simultaneously and fails on any divergence of Get results.
func KVSemantics(t *testing.T, app harness.KVApplication, w workload.Workload) {
	t.Helper()
	KVSemanticsWithin(t, app, w, 0)
}

// KVSemanticsWithin is KVSemantics under a fuel budget of maxEvents PM
// events (0 = none): a run that exhausts it fails the test instead of
// spinning. It returns the engine the workload ran on, so the caller
// can check the final pool.
func KVSemanticsWithin(t *testing.T, app harness.KVApplication, w workload.Workload, maxEvents uint64) *pmem.Engine {
	t.Helper()
	e := pmem.NewEngine(pmem.Options{PoolSize: app.PoolSize(), MaxEvents: maxEvents})
	defer func() {
		r := recover()
		if h, ok := r.(*pmem.HangSignal); ok {
			t.Fatalf("the workload did not finish: %v", h)
		} else if r != nil {
			panic(r)
		}
	}()
	if err := app.Setup(e); err != nil {
		t.Fatalf("setup: %v", err)
	}
	kv, err := app.Open(e)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	model := map[uint64]uint64{}
	for i, op := range w.Ops {
		switch op.Kind {
		case workload.Put:
			if err := kv.Put(op.Key, op.Val); err != nil {
				t.Fatalf("op %d put(%d): %v", i, op.Key, err)
			}
			model[op.Key] = op.Val
		case workload.Get:
			got, ok, err := kv.Get(op.Key)
			if err != nil {
				t.Fatalf("op %d get(%d): %v", i, op.Key, err)
			}
			want, wantOK := model[op.Key]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d get(%d) = (%d,%v), want (%d,%v)", i, op.Key, got, ok, want, wantOK)
			}
		case workload.Delete:
			if err := kv.Delete(op.Key); err != nil {
				t.Fatalf("op %d delete(%d): %v", i, op.Key, err)
			}
			delete(model, op.Key)
		}
	}
	// Final sweep: every model key must be present with its value.
	for k, v := range model {
		got, ok, err := kv.Get(k)
		if err != nil || !ok || got != v {
			t.Fatalf("final get(%d) = (%d,%v,%v), want (%d,true)", k, got, ok, err, v)
		}
	}
	return e
}

// Crash runs setup+workload crashing at instruction counter target and
// returns the graceful-crash (program-order prefix) image, or nil when
// the run completed before reaching the counter.
func Crash(t *testing.T, app harness.Application, w workload.Workload, target uint64) *pmem.Image {
	t.Helper()
	eng, sig, err := harness.Execute(app, w, pmem.Options{}, injector{target: target})
	if sig == nil {
		if err != nil {
			t.Fatalf("workload failed before crash point %d: %v", target, err)
		}
		return nil
	}
	return eng.PrefixImage()
}

type injector struct{ target uint64 }

func (in injector) OnEvent(ev *pmem.Event) {
	if ev.ICount == in.target {
		panic(&pmem.CrashSignal{ICount: ev.ICount, Reason: "apptest crash"})
	}
}

// CrashConsistent probes up to samples crash points — persistency
// instructions, Mumak's failure-point granularity — and fails if the
// recovery oracle rejects any prefix image. Use with all bug knobs off:
// a correct persistence protocol must recover from every graceful crash.
func CrashConsistent(t *testing.T, mk func() harness.Application, w workload.Workload, samples int) {
	t.Helper()
	failures := probe(t, mk, w, samples, 1)
	if len(failures) != 0 {
		img := Crash(t, mk(), w, failures[0])
		out := oracle.Check(mk(), img)
		t.Fatalf("crash at instruction %d is unrecoverable: %s\n%s",
			failures[0], out.Describe(), out.PanicTrace)
	}
}

// ExposesBug probes crash points and fails unless at least one prefix
// image is rejected by the oracle — the seeded defect must be visible to
// fault injection at persistency-instruction granularity.
func ExposesBug(t *testing.T, mk func() harness.Application, w workload.Workload, samples int) {
	t.Helper()
	if !Exposes(t, mk, w, samples) {
		t.Fatal("no crash point exposed the seeded bug under fault injection")
	}
}

// Exposes reports whether any sampled crash point yields a prefix image
// the recovery oracle rejects.
func Exposes(t *testing.T, mk func() harness.Application, w workload.Workload, samples int) bool {
	t.Helper()
	return len(probe(t, mk, w, samples, 1)) != 0
}

// HiddenFromPrefix probes crash points and fails if any prefix image is
// rejected — used for the "missed" bug class whose exposing states do
// not respect a program-order prefix (§4.1/§6.2).
func HiddenFromPrefix(t *testing.T, mk func() harness.Application, w workload.Workload, samples int) {
	t.Helper()
	if failures := probe(t, mk, w, samples, 1); len(failures) != 0 {
		t.Fatalf("bug expected to be hidden from prefix images was exposed at instruction %d", failures[0])
	}
}

// probe crashes at every unique failure point — the leaves of a failure
// point tree built at persistency-instruction granularity, exactly
// Mumak's fault-injection mechanism (§4.1) — and returns up to limit
// crash points whose prefix image fails recovery. samples caps the
// number of probed leaves (0 = all).
func probe(t *testing.T, mk func() harness.Application, w workload.Workload, samples, limit int) []uint64 {
	t.Helper()
	stacks := stack.NewTable()
	tree := fpt.New(stacks)
	builder := fpt.NewBuilder(tree, fpt.GranPersistency)
	_, sig, err := harness.Execute(mk(), w,
		pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks}, builder)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if sig != nil {
		t.Fatal("clean run crashed without an injector")
	}
	leaves := tree.LeavesByICount()
	if samples > 0 && len(leaves) > samples {
		leaves = leaves[:samples]
	}
	var failures []uint64
	for _, leaf := range leaves {
		if len(failures) >= limit {
			break
		}
		img := Crash(t, mk(), w, leaf.FirstICount)
		if img == nil {
			continue
		}
		if out := oracle.Check(mk(), img); !out.Consistent() {
			failures = append(failures, leaf.FirstICount)
		}
	}
	return failures
}
