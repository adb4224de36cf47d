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
// step one, and both ask it for their stack demand, so a stack-mode
// execution recognises exactly the events the builder turned into
// leaves.
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
	// OnLeaf, when set, is handed every new leaf once the builder has
	// stamped it and, with KeepImages, frozen its image, so a campaign
	// can start on the leaf while the instrumented run goes on. Leaves
	// arrive in FirstICount order, on the executing goroutine, and the
	// builder never writes a leaf it has handed over.
	OnLeaf func(*Leaf)
	// eng is the engine this builder is attached to (AttachHook hands it
	// over via pmem.EngineObserver). Every new leaf is stamped with its
	// crash-image identity at insertion time.
	eng  *pmem.Engine
	gate storeGate
}

// ObserveEngine implements pmem.EngineObserver: it gives the builder
// access to the engine's crash image and its hash.
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

// WantsLoads implements pmem.LoadDemand: a load is never a failure
// point and does not move the gate.
func (b *Builder) WantsLoads() bool { return false }

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
	if !added {
		return
	}
	if b.eng != nil {
		if b.KeepImages {
			leaf.Image = b.eng.PrefixImage()
		}
		leaf.ImageHash = b.eng.PrefixImageHash()
		leaf.ImageSize = b.eng.Size()
	}
	if b.OnLeaf != nil {
		b.OnLeaf(leaf)
	}
}

// Injector is a pmem.Hook that crashes a stack-mode execution at chosen
// failure points, each reached at the first failure-point event whose
// call stack matches its leaf's, which requires stack capture but no
// determinism. (Counter-mode campaigns re-execute nothing: they judge
// the image the Builder froze at the leaf's first occurrence.)
//
// A pass (NewPass) serves many target leaves in one execution: at each
// target's first match it hands the target its graceful-crash image,
// frozen before the event's mutation applies (exactly the state a crash
// there leaves), and it crashes the execution once every target is
// served. An Injector literal with Target set is the pass over that one
// leaf which serves nothing: it crashes at the target's first match.
//
// The injector carries its own state: it never reads or writes shared
// campaign state, so any number of executions can run against the same
// frozen tree with a private Injector each. Which leaves an execution
// targets is decided up front, not by the injector mutating visited
// marks as it fires.
type Injector struct {
	// Target is the leaf a one-target replay crashes at; nil in a
	// pass. Leaves are read-only to the injector.
	Target *Leaf
	// Granularity must match the tree's.
	Granularity Granularity

	// unserved indexes the targets not yet served by call stack.
	unserved map[stack.ID]int
	serve    func(i int, img *pmem.Image, icount uint64)
	halt     func() bool
	eng      *pmem.Engine
	gate     storeGate
}

// NewPass returns an injector serving targets, distinct leaves of one
// tree, in one execution: at each target's first call-stack match,
// serve gets its index in targets, its graceful-crash image and the
// instruction counter there. halt, polled at every failure-point
// candidate, ends the execution with a *pmem.CrashSignal when it
// returns true.
func NewPass(targets []*Leaf, g Granularity, serve func(i int, img *pmem.Image, icount uint64), halt func() bool) *Injector {
	in := &Injector{Granularity: g, unserved: make(map[stack.ID]int, len(targets)), serve: serve, halt: halt}
	for i, leaf := range targets {
		in.unserved[leaf.Stack] = i
	}
	return in
}

// ObserveEngine implements pmem.EngineObserver: a pass freezes its
// targets' images from the engine.
func (in *Injector) ObserveEngine(e *pmem.Engine) { in.eng = e }

// WantsStack implements pmem.StackDemand: only a failure-point
// candidate's stack can match a target.
func (in *Injector) WantsStack(ev *pmem.Event) bool {
	return in.gate.candidate(in.Granularity, ev)
}

// WantsLoads implements pmem.LoadDemand: the injector steps the
// builder's gate, which loads do not move.
func (in *Injector) WantsLoads() bool { return false }

// OnEvent implements pmem.Hook; it panics with *pmem.CrashSignal once
// every target is served, before the last one's instruction takes
// effect, or when halt asks it to.
func (in *Injector) OnEvent(ev *pmem.Event) {
	if !in.gate.step(in.Granularity, ev) {
		return
	}
	if in.halt != nil && in.halt() {
		panic(&pmem.CrashSignal{ICount: ev.ICount, Reason: "execution halted"})
	}
	if in.unserved == nil {
		in.unserved = map[stack.ID]int{in.Target.Stack: 0}
	}
	i, ok := in.unserved[ev.Stack]
	if !ok || ev.Stack == stack.NoID {
		return
	}
	delete(in.unserved, ev.Stack)
	if in.serve != nil {
		in.serve(i, in.eng.PrefixImage(), ev.ICount)
	}
	if len(in.unserved) == 0 {
		panic(&pmem.CrashSignal{ICount: ev.ICount, Stack: ev.Stack, Reason: "failure point (stack mode)"})
	}
}
