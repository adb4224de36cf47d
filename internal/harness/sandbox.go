package harness

import (
	"fmt"

	"mumak/internal/pmem"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// PanicInfo describes a foreign target panic captured by the sandbox:
// the panic value and the goroutine trace at the point of failure, the
// raw material of a target-crash finding or a crashed recovery's
// verdict.
type PanicInfo struct {
	// Value is the recovered panic value.
	Value any
	// Trace is the target's part of the goroutine stack at the panic
	// (stack.PanicTrace).
	Trace string
}

// Outcome is the structured result of one sandboxed execution. At most
// one of Sig, Hang, Panic and Err is set; all nil means the execution
// completed normally.
type Outcome struct {
	// Sig is the injected crash, when a *pmem.CrashSignal fired.
	Sig *pmem.CrashSignal
	// Hang is set when the engine watchdog (fuel budget or wall-clock
	// deadline) preempted the execution.
	Hang *pmem.HangSignal
	// Panic captures a foreign panic of the target itself — a crash of
	// the application outside fault injection, or of its recovery
	// procedure — which the sandbox turns into data instead of
	// propagating into the tool.
	Panic *PanicInfo
	// Err is the error returned by Setup or Run.
	Err error
}

// ExecuteSandboxed runs Setup and the workload like Execute, but converts
// every abnormal termination into the structured Outcome: injected
// crashes (as Execute does), watchdog preemptions, and — unlike Execute —
// foreign panics of the target itself. It is the execution entry point
// for campaigns that must survive a misbehaving black-box target and
// report its behaviour as a finding; Execute remains the strict variant
// whose callers want target bugs to fail loudly.
func ExecuteSandboxed(app Application, w workload.Workload, opts pmem.Options, hooks ...pmem.Hook) (eng *pmem.Engine, out Outcome) {
	if opts.PoolSize == 0 {
		opts.PoolSize = app.PoolSize()
	}
	eng = pmem.NewEngine(opts)
	for _, h := range hooks {
		eng.AttachHook(h)
	}
	out = RunSandboxed(func() error {
		if err := app.Setup(eng); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		return app.Run(eng, w)
	})
	return eng, out
}

// RunSandboxed invokes f, classifying every way it can stop: an
// injected crash, a watchdog preemption, a foreign panic with its trace,
// or a returned error. It is the one place a target's panic is
// recovered, whether the target was running its workload
// (ExecuteSandboxed) or its recovery procedure (oracle.CheckEngine).
func RunSandboxed(f func() error) (out Outcome) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch v := r.(type) {
		case *pmem.CrashSignal:
			out.Sig = v
		case *pmem.HangSignal:
			out.Hang = v
		default:
			out.Panic = &PanicInfo{Value: v, Trace: stack.PanicTrace()}
		}
	}()
	out.Err = f()
	return
}
