// Package misbehave provides deliberately broken fixture targets for
// exercising the campaign sandbox and replay robustness: a target whose
// Run panics, one whose Run never terminates, one whose recovery
// procedure loops forever, one whose recovery procedure panics, and two
// whose replays fail — permanently (quarantine path) or transiently
// (retry path).
//
// The fixtures live in their own registry rather than the main
// internal/apps one on purpose: the apps registry is the paper's §6
// target set, and its tests assert the exact list, KV semantics and
// clean-target properties that misbehaving fixtures would violate.
// cmd/mumak consults this registry as a fallback after the main one.
package misbehave

import (
	"errors"
	"sort"
	"sync/atomic"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// Mode selects the seeded misbehaviour.
type Mode uint8

// Misbehaviour modes.
const (
	// Clean performs the fixed writes and terminates; it is the control
	// fixture (the sandbox must not change its report).
	Clean Mode = iota
	// PanicRun panics halfway through Run with a foreign (non-signal)
	// panic value.
	PanicRun
	// HangRun enters an infinite PM-read loop halfway through Run,
	// burning fuel until the hang watchdog terminates the execution.
	HangRun
	// HangRecovery makes Recover loop over PM forever, so every
	// recovery-oracle invocation hangs.
	HangRecovery
	// ReplayBroken performs one clean execution (the instrumented run)
	// and deterministically fails every execution after it before any
	// PM instruction: every replay skips, so every failure point must
	// end up quarantined rather than silently dropped — and the
	// campaign must still terminate. Only stack-mode campaigns exercise
	// it: counter mode judges phase-1 images and runs no application
	// code after the instrumented run.
	ReplayBroken
	// ReplayFlaky fails exactly the second execution — the first
	// replay attempt — and succeeds on every other one, so the bounded
	// per-leaf retry must absorb it (one retried failure point, zero
	// quarantined). Like ReplayBroken it needs stack mode.
	ReplayFlaky
	// RecoveryPanic makes Recover panic with a foreign value once it
	// has found the pool magic, so every crash image gets the Crashed
	// verdict and a recovery trace.
	RecoveryPanic
)

const (
	poolSize = 1 << 16
	// magic marks a set-up pool; Recover rejects a pool without it.
	magic = 0x6d69736265686176 // "misbehav"
	// rounds is the number of fixed persisted writes Run performs; the
	// misbehaviour fires before round misbehaveRound, leaving the
	// earlier rounds as ordinary failure points for the campaign.
	rounds         = 12
	misbehaveRound = 6
)

// App is one misbehaving fixture target.
type App struct {
	name string
	mode Mode
	// runs counts Setup entries across the instrumented run and every
	// replay; the replay-failure modes key off it. Atomic because the
	// one fixture instance is shared across parallel campaign workers.
	runs atomic.Int64
}

// Name implements harness.Application.
func (a *App) Name() string { return a.name }

// PoolSize implements harness.Application.
func (a *App) PoolSize() int { return poolSize }

// Setup implements harness.Application: it persists the pool magic.
// The replay-failure modes fire here, before the first PM instruction,
// so a failed execution looks exactly like a replay that diverged.
func (a *App) Setup(e *pmem.Engine) error {
	run := a.runs.Add(1)
	switch {
	case a.mode == ReplayBroken && run > 1:
		return errors.New("misbehave: seeded replay failure (every execution after the first)")
	case a.mode == ReplayFlaky && run == 2:
		return errors.New("misbehave: seeded transient replay failure (second execution only)")
	}
	e.Store64(0, magic)
	e.CLWB(0)
	e.SFence()
	return nil
}

// Run implements harness.Application. The workload is ignored: a fixed,
// deterministic sequence of persisted stores keeps the failure point
// tree identical across runs, which stack-mode replays and resumed
// campaigns rely on.
func (a *App) Run(e *pmem.Engine, _ workload.Workload) error {
	for i := 1; i <= rounds; i++ {
		if i == misbehaveRound {
			switch a.mode {
			case PanicRun:
				panic("misbehave: seeded target panic in Run")
			case HangRun:
				for {
					e.Load64(8)
				}
			}
		}
		addr := uint64(64 * i)
		e.Store64(addr, uint64(i))
		e.CLWB(addr)
		e.SFence()
	}
	return nil
}

// Recover implements harness.Application.
func (a *App) Recover(e *pmem.Engine) error {
	if e.Load64(0) != magic {
		return errors.New("misbehave: pool magic missing")
	}
	switch a.mode {
	case HangRecovery:
		for {
			e.Load64(8)
		}
	case RecoveryPanic:
		panic("misbehave: seeded recovery panic")
	}
	return nil
}

// NewMode builds a fixture with the given mode and a registry-consistent
// name (tests that want a mode directly use this).
func NewMode(mode Mode) *App {
	for name, m := range registry {
		if m == mode {
			return &App{name: name, mode: mode}
		}
	}
	return &App{name: "misbehave", mode: mode}
}

var registry = map[string]Mode{
	"misbehave-clean":          Clean,
	"misbehave-run-panic":      PanicRun,
	"misbehave-run-hang":       HangRun,
	"misbehave-recovery-hang":  HangRecovery,
	"misbehave-replay-broken":  ReplayBroken,
	"misbehave-replay-flaky":   ReplayFlaky,
	"misbehave-recovery-panic": RecoveryPanic,
}

// New resolves a fixture by registry name, reporting whether it exists.
func New(name string) (harness.Application, bool) {
	mode, ok := registry[name]
	if !ok {
		return nil, false
	}
	return &App{name: name, mode: mode}, true
}

// Names lists the fixture names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
