// Package oracle runs an application's recovery procedure as a
// consistency oracle over a crash image (§4.1).
//
// PM applications already ship a mechanism for distinguishing valid from
// invalid states: the recovery procedure. When it fails — returning an
// error, or crashing abruptly — the post-failure state is flagged as a
// bug, without annotations or knowledge of the application semantics.
// The oracle is imperfect: an incomplete recovery procedure yields false
// negatives (the Level Hashing case of §6.2).
//
// Recovery can also fail by never terminating: a procedure that loops on
// a corrupted image is a first-class PM bug category (non-terminating
// recovery) and, untreated, would stall the campaign that invoked it.
// CheckBounded combines two watchdogs — a deterministic PM-event fuel
// budget enforced inside the engine, and a wall-clock timer on a
// sacrificial goroutine for loops that never touch PM — and classifies
// such recoveries with the Hung verdict.
package oracle

import (
	"fmt"
	"time"

	"mumak/internal/harness"
	"mumak/internal/pmem"
)

// Verdict classifies a recovery attempt.
type Verdict uint8

// Recovery verdicts.
const (
	// Consistent: recovery completed and accepted the state.
	Consistent Verdict = iota
	// Unrecoverable: recovery completed but flagged the state invalid.
	Unrecoverable
	// Crashed: recovery itself failed abruptly (the segmentation-fault
	// analogue), which is reported with its own debug trace.
	Crashed
	// Hung: recovery did not terminate within the watchdog bounds —
	// the liveness analogue of Crashed. Only CheckBounded can produce
	// it.
	Hung
)

var verdictNames = [...]string{
	Consistent:    "consistent",
	Unrecoverable: "unrecoverable",
	Crashed:       "recovery crashed",
	Hung:          "recovery hung",
}

// String names the verdict.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "verdict?"
}

// Watchdog bounds one recovery attempt. The zero value imposes no bounds
// and makes CheckBounded equivalent to Check.
type Watchdog struct {
	// MaxEvents is the PM-event fuel budget for the recovery engine;
	// exceeding it yields the Hung verdict at a deterministic point.
	// Zero means unbounded.
	MaxEvents uint64
	// Timeout is the wall-clock bound. It backs the fuel budget for
	// recoveries that hang without touching PM: when it expires the
	// check abandons the recovery on its sacrificial goroutine and
	// returns Hung. Zero means no wall-clock bound.
	Timeout time.Duration
}

// Outcome is the result of one oracle invocation.
type Outcome struct {
	// Verdict classifies the recovery attempt.
	Verdict Verdict
	// Err is the recovery error for Unrecoverable outcomes.
	Err error
	// PanicValue and PanicTrace describe a Crashed outcome, giving the
	// developer the recovery's call trace that led to the failure: the
	// target's frames only (stack.PanicTrace), deterministic across runs
	// and builds.
	PanicValue any
	PanicTrace string
	// Hang describes a Hung outcome stopped inside the engine (fuel
	// budget or engine deadline); nil when the wall-clock timer fired
	// without the recovery touching PM.
	Hang *pmem.HangSignal
	// Bounds echoes the watchdog the check ran under, so Hung outcomes
	// render deterministically from configuration rather than from
	// measured time.
	Bounds Watchdog
	// Engine is the post-recovery engine, available to tools that run
	// additional checks (output equivalence) on the recovered state.
	// It is nil for Hung outcomes whose sacrificial goroutine was
	// abandoned: the engine may still be in use there.
	Engine *pmem.Engine
}

// Consistent reports whether recovery accepted the state.
func (o Outcome) Consistent() bool { return o.Verdict == Consistent }

// Describe renders the outcome for bug reports. Hung outcomes are
// described from the configured bounds only, never from measured time,
// so reports stay byte-identical across runs and worker counts.
func (o Outcome) Describe() string {
	switch o.Verdict {
	case Unrecoverable:
		return fmt.Sprintf("recovery flagged the state unrecoverable: %v", o.Err)
	case Crashed:
		return fmt.Sprintf("recovery crashed abruptly: %v", o.PanicValue)
	case Hung:
		if o.Hang != nil && !o.Hang.Deadline {
			return fmt.Sprintf("recovery did not terminate: hang watchdog exhausted its budget of %d PM events", o.Hang.Budget)
		}
		return fmt.Sprintf("recovery did not terminate within the %s wall-clock watchdog", o.Bounds.Timeout)
	default:
		return "state consistent"
	}
}

// Check runs the application's recovery procedure, uninstrumented
// ("vanilla recovery code", §4.1), on a fresh engine initialised from the
// crash image. It imposes no watchdog: a non-terminating recovery hangs
// the caller. It is CheckBounded with a zero Watchdog, which runs the
// recovery on the caller's goroutine. Campaigns use CheckBounded.
func Check(app harness.Application, img *pmem.Image) Outcome {
	return CheckBounded(app, img, Watchdog{})
}

// CheckBounded runs the recovery procedure under the watchdog. The fuel
// budget is enforced inside the engine and preempts any recovery that
// keeps issuing PM instructions; the wall-clock timeout catches the
// rest by running the recovery on a sacrificial goroutine and walking
// away from it. An abandoned goroutine is additionally bounded by an
// engine deadline, so it cannot survive past its next PM access.
func CheckBounded(app harness.Application, img *pmem.Image, wd Watchdog) Outcome {
	opts := pmem.Options{MaxEvents: wd.MaxEvents}
	if wd.Timeout > 0 {
		opts.Deadline = time.Now().Add(wd.Timeout)
	}
	eng := pmem.NewEngineFromImage(opts, img)
	if wd.Timeout <= 0 {
		out := CheckEngine(app, eng)
		out.Bounds = wd
		return out
	}
	ch := make(chan Outcome, 1)
	go func() {
		ch <- CheckEngine(app, eng)
	}()
	timer := time.NewTimer(wd.Timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		out.Bounds = wd
		return out
	case <-timer.C:
		// The recovery neither finished nor touched PM within the
		// bound. Abandon it: the buffered channel lets the goroutine
		// retire whenever the engine deadline (or a return) ends it.
		return Outcome{Verdict: Hung, Bounds: wd}
	}
}

// CheckEngine runs the recovery procedure on eng, on the caller's
// goroutine and under whatever bounds and hooks eng already has, and
// classifies the attempt through the sandbox's classifier
// (harness.RunSandboxed): a returned error is Unrecoverable, a panic is
// Crashed with its trace, and an engine hang signal is Hung. Tools that
// instrument the post-failure execution build the engine themselves and
// judge it here.
func CheckEngine(app harness.Application, eng *pmem.Engine) Outcome {
	out := Outcome{Engine: eng}
	run := harness.RunSandboxed(func() error { return app.Recover(eng) })
	switch {
	case run.Hang != nil:
		out.Verdict, out.Hang, out.Engine = Hung, run.Hang, nil
	case run.Panic != nil:
		out.Verdict, out.PanicValue, out.PanicTrace = Crashed, run.Panic.Value, run.Panic.Trace
	case run.Sig != nil:
		// No injector of this check raised the crash signal: recovery
		// failed as abruptly as with any other panic.
		out.Verdict, out.PanicValue = Crashed, run.Sig
	case run.Err != nil:
		out.Verdict, out.Err = Unrecoverable, run.Err
	}
	return out
}
