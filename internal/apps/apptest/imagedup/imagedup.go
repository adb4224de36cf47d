// Package imagedup provides fixture targets whose fault-injection
// campaigns produce many byte-identical graceful-crash images — the
// workload shape verdict reuse (core.Config.Classing) exists for.
//
// The insight the fixtures exploit is the one behind verdict reuse: the
// program-order-prefix image changes only when the prefix gains a store
// with new content. Each target runs two phases. The fill phase
// persists distinct values at increasing recursion depths, so every
// fill failure point materialises a distinct image (a class of its
// own). The
// scan phase then re-persists values that are already durable, again at
// distinct recursion depths: each round is a genuine failure point (a
// store precedes its flush) with its own call stack and instruction
// counter, yet every scan image — and the deepest fill image — is
// byte-identical, so one recovery run serves them all. Re-persisting
// already-durable data is how real PM code behaves in verification
// sweeps, status-flag updates and idempotent replays, so the dedup rate
// is representative rather than adversarial.
//
// Like misbehave, the fixtures live outside the main internal/apps
// registry (the paper's §6 target set); cmd/mumak consults this
// registry as a fallback.
package imagedup

import (
	"errors"
	"fmt"
	"sort"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// Mode selects the fixture's recovery behaviour.
type Mode uint8

// Fixture modes.
const (
	// Clean recovers successfully whenever the pool is well-formed; its
	// campaign report is finding-free.
	Clean Mode = iota
	// BrokenRecovery rejects every state, so each failure point yields
	// an Unrecoverable finding. Scan-phase leaves share one image but
	// crash at distinct instruction counters: the fixture proves a
	// reused verdict still produces one finding per failure point, each
	// with its own ICount.
	BrokenRecovery
)

// Default fixture dimensions (Custom overrides them).
const (
	// DefaultDepth is the fill recursion depth: distinct images, one
	// class each.
	DefaultDepth = 4
	// DefaultScanRounds is the scan recursion depth: identical images,
	// one class whose every round inherits the deepest fill leaf's
	// verdict.
	DefaultScanRounds = 12
	// DefaultPoolSize keeps the default fixture cheap; benches pass a
	// larger pool through Custom to amplify the per-image cost verdict
	// reuse avoids.
	DefaultPoolSize = 1 << 16

	// magic marks a set-up pool; Recover rejects a pool without it.
	magic = 0x696d616765647570 // "imagedup"
)

// App is one image-duplication fixture target.
type App struct {
	name       string
	mode       Mode
	depth      int
	scanRounds int
	poolSize   int
}

// Name implements harness.Application.
func (a *App) Name() string { return a.name }

// PoolSize implements harness.Application.
func (a *App) PoolSize() int { return a.poolSize }

// slot returns the address persisted at fill depth i.
func slot(i int) uint64 { return uint64(64 * i) }

// Setup implements harness.Application: it persists the pool magic.
func (a *App) Setup(e *pmem.Engine) error {
	e.Store64(0, magic)
	e.CLWB(0)
	e.SFence()
	return nil
}

// Run implements harness.Application. The workload is ignored: a fixed,
// deterministic instruction sequence keeps the failure point tree
// identical across runs, which counter-mode replays rely on.
func (a *App) Run(e *pmem.Engine, _ workload.Workload) error {
	a.fill(e, 1)
	a.scan(e, 1)
	return nil
}

// fill persists a distinct value per recursion depth. Recursion gives
// every depth its own call stack, hence its own failure point; each
// one's graceful-crash image embeds a different store prefix.
func (a *App) fill(e *pmem.Engine, i int) {
	if i > a.depth {
		return
	}
	e.Store64(slot(i), uint64(i))
	e.CLWB(slot(i))
	e.SFence()
	a.fill(e, i+1)
}

// scan re-persists already-durable values, one slot per recursion
// depth. The store makes the following flush a failure point (§4.1
// counts a persistency instruction only after a store), but stores no
// new content: the program-order prefix — and therefore the crash image
// — is identical at every scan failure point.
func (a *App) scan(e *pmem.Engine, i int) {
	if i > a.scanRounds {
		return
	}
	s := 1 + (i-1)%a.depth
	e.Store64(slot(s), uint64(s))
	e.CLWB(slot(s))
	e.SFence()
	a.scan(e, i+1)
}

// Recover implements harness.Application.
func (a *App) Recover(e *pmem.Engine) error {
	if a.mode == BrokenRecovery {
		return errors.New("imagedup: recovery rejects every state by design")
	}
	if e.Load64(0) != magic {
		return errors.New("imagedup: pool magic missing")
	}
	for i := 1; i <= a.depth; i++ {
		if v := e.Load64(slot(i)); v != 0 && v != uint64(i) {
			return fmt.Errorf("imagedup: slot %d holds %d, want 0 or %d", i, v, i)
		}
	}
	return nil
}

// Custom builds a fixture with explicit dimensions; benches use it to
// scale the pool (amplifying per-image copy cost) and the scan length
// (raising the duplicate-image rate). Non-positive dimensions select
// the defaults.
func Custom(name string, mode Mode, depth, scanRounds, poolSize int) *App {
	if depth <= 0 {
		depth = DefaultDepth
	}
	if scanRounds <= 0 {
		scanRounds = DefaultScanRounds
	}
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	return &App{name: name, mode: mode, depth: depth, scanRounds: scanRounds, poolSize: poolSize}
}

var registry = map[string]Mode{
	"imagedup":        Clean,
	"imagedup-broken": BrokenRecovery,
}

// New resolves a fixture by registry name, reporting whether it exists.
func New(name string) (harness.Application, bool) {
	mode, ok := registry[name]
	if !ok {
		return nil, false
	}
	return Custom(name, mode, 0, 0, 0), true
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
