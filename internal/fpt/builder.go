package fpt

import (
	"mumak/internal/pmem"
	"mumak/internal/stack"
)

// Granularity selects which instructions constitute failure points
// (§4.1: store level vs persistency-instruction level).
type Granularity uint8

// Failure-point granularities.
const (
	// GranPersistency treats flushes and fences as failure points —
	// Mumak's default, which covers all atomicity and the vast
	// majority of ordering bugs with roughly an order of magnitude
	// fewer points than GranStore (Fig 3).
	GranPersistency Granularity = iota
	// GranStore treats every store to PM as a failure point — best
	// post-failure-state coverage, largest search space.
	GranStore
)

// storeGate is the §4.1 failure-point rule, the one definition of which
// events become leaves: under GranStore every store is a failure point;
// under GranPersistency a flush or fence is one only if a PM store
// happened since the last flush or fence, since otherwise the
// post-failure state equals the previous one. An RMW is a fence that
// also writes, so it re-arms the gate. The Builder and the Injector both
// step one, and both ask it for their stack demand, so a replay
// recognises exactly the events the builder turned into leaves.
type storeGate struct {
	// armed records a store since the last flush or fence.
	armed bool
}

// candidate reports whether ev is a failure point under g, given the
// events the gate has already stepped past. It does not advance the
// gate, so a StackDemand can ask it before the hook sees ev.
func (s *storeGate) candidate(g Granularity, ev *pmem.Event) bool {
	switch ev.Op.Kind() {
	case pmem.KindStore:
		return g == GranStore
	case pmem.KindFlush, pmem.KindFence:
		return g == GranPersistency && s.armed
	}
	return false
}

// step advances the gate past ev and reports whether ev was a failure
// point.
func (s *storeGate) step(g Granularity, ev *pmem.Event) bool {
	fp := s.candidate(g, ev)
	switch ev.Op.Kind() {
	case pmem.KindStore:
		s.armed = true
	case pmem.KindFlush, pmem.KindFence:
		// The RMW writes as well as fences.
		s.armed = ev.Op == pmem.OpRMW
	}
	return fp
}

// Builder is a pmem.Hook that constructs the failure point tree during
// the instrumented workload run (steps 4-5 of Fig 1).
type Builder struct {
	// Tree receives the failure points.
	Tree *Tree
	// Granularity selects the failure-point definition.
	Granularity Granularity
	// KeepImages makes the builder freeze every new leaf's
	// graceful-crash image into Leaf.Image (pmem.Engine.PrefixImage,
	// O(1)).
	KeepImages bool
	// eng is the engine this builder is attached to (AttachHook hands it
	// over via pmem.EngineObserver). Every new leaf is stamped with its
	// crash-image identity at insertion time.
	eng  *pmem.Engine
	gate storeGate
}

// ObserveEngine implements pmem.EngineObserver: it gives the builder
// access to the engine's crash image and its rolling hash.
func (b *Builder) ObserveEngine(e *pmem.Engine) { b.eng = e }

// NewBuilder returns a builder inserting into tree.
func NewBuilder(tree *Tree, g Granularity) *Builder {
	return &Builder{Tree: tree, Granularity: g}
}

// WantsStack implements pmem.StackDemand: a leaf is keyed by its call
// stack, so the builder needs one exactly at failure-point candidates.
func (b *Builder) WantsStack(ev *pmem.Event) bool {
	return b.gate.candidate(b.Granularity, ev)
}

// OnEvent implements pmem.Hook.
func (b *Builder) OnEvent(ev *pmem.Event) {
	if b.gate.step(b.Granularity, ev) {
		b.insert(ev)
	}
}

func (b *Builder) insert(ev *pmem.Event) {
	if ev.Stack == stack.NoID {
		return
	}
	leaf, added := b.Tree.Insert(ev.Stack, ev.ICount)
	if !added || b.eng == nil {
		return
	}
	if b.KeepImages {
		leaf.Image = b.eng.PrefixImage()
	}
	leaf.ImageHash = b.eng.PrefixImageHash()
	leaf.ImageSize = b.eng.Size()
}

// Injector is a pmem.Hook that crashes a stack-mode replay at a chosen
// failure point: the first failure-point event whose call stack matches
// the target leaf's, which requires stack capture but no determinism.
// (Counter-mode campaigns replay nothing: they judge the image the
// Builder froze at the leaf's first occurrence.)
//
// The injector carries its own cursor: it never reads or writes shared
// campaign state, so one replay per worker can run against the same
// frozen tree with a private Injector each. Which leaf a replay targets
// is decided up front (the campaign hands out leaves in first-occurrence
// order), not by the injector mutating visited marks as it fires.
type Injector struct {
	// Target is the leaf the replay crashes at. The leaf is read-only
	// to the injector.
	Target *Leaf
	// Granularity must match the tree's.
	Granularity Granularity

	gate storeGate
}

// WantsStack implements pmem.StackDemand: only a failure-point
// candidate's stack can match the target.
func (in *Injector) WantsStack(ev *pmem.Event) bool {
	return in.gate.candidate(in.Granularity, ev)
}

// OnEvent implements pmem.Hook; it panics with *pmem.CrashSignal at the
// target failure point, before the instruction takes effect.
func (in *Injector) OnEvent(ev *pmem.Event) {
	if !in.gate.step(in.Granularity, ev) || ev.Stack == stack.NoID || ev.Stack != in.Target.Stack {
		return
	}
	panic(&pmem.CrashSignal{ICount: ev.ICount, Stack: ev.Stack, Reason: "failure point (stack mode)"})
}
