package pmem

import (
	"fmt"

	"mumak/internal/stack"
)

// Event is one observed PM instruction. Events are delivered to Hooks
// before the instruction takes effect, so a hook may crash the execution
// at precisely this point by panicking with a *CrashSignal.
//
// The fields mirror the optimised trace record of §5 of the paper: the
// instruction type, its argument(s), and a monotonically increasing
// instruction counter that uniquely identifies the traced instruction.
//
// Each Engine owns one Event and overwrites all of it for every
// instruction it delivers, so a delivered *Event, like its Data, is
// valid only during the hook call (see Hook). A load is delivered only
// to the hooks that read loads (LoadDemand); its counter is taken all
// the same, so a hook that declines loads sees gaps in ICount.
type Event struct {
	// ICount is the 1-based instruction counter of this event within
	// the engine's lifetime.
	ICount uint64
	// Op is the concrete instruction.
	Op Opcode
	// Addr is the first byte affected (stores, loads, flushes). For
	// flushes it is rounded down to the cache-line base. Zero for
	// fences.
	Addr uint64
	// Size is the number of bytes affected. CacheLineSize for flushes,
	// 0 for fences.
	Size int
	// Data holds the bytes a store or RMW event leaves in the pool: the
	// operand of a store, the new value of a successful CAS or of FAA,
	// and the unchanged current value of a failed CAS (what a locked
	// cmpxchg writes back). Nil for loads, flushes and fences. The
	// slice aliases the engine's operand buffer, not the caller's, and
	// is only valid for the duration of the hook call; hooks that
	// retain it must copy.
	Data []byte
	// Stack identifies the call stack at the instruction when the
	// engine captured one: Options.Capture covers the opcode and an
	// attached hook needs it (StackDemand). stack.NoID otherwise.
	Stack stack.ID
}

// String formats the event compactly for debug output.
func (e *Event) String() string {
	switch e.Op.Kind() {
	case KindFence:
		return fmt.Sprintf("#%d %s", e.ICount, e.Op)
	case KindFlush:
		return fmt.Sprintf("#%d %s 0x%x", e.ICount, e.Op, e.Addr)
	default:
		return fmt.Sprintf("#%d %s 0x%x+%d", e.ICount, e.Op, e.Addr, e.Size)
	}
}

// AnnKind classifies library annotations. Annotations are the analogue of
// pmemcheck/PMDK instrumentation macros: they are emitted by PM libraries
// (never required by Mumak, which is annotation-free) and consumed by the
// annotation-dependent baseline tools (PMDebugger, XFDetector).
type AnnKind uint8

// Annotation kinds mirroring the pmemcheck/XFDetector macro families.
const (
	// AnnTxBegin marks the start of a failure-atomic section.
	AnnTxBegin AnnKind = iota
	// AnnTxEnd marks the end of a failure-atomic section.
	AnnTxEnd
	// AnnPersist declares that [Addr, Addr+Size) has been made durable
	// by the library (pmemcheck's DO_PERSIST).
	AnnPersist
	// AnnCommitVar declares Addr as a commit variable whose persistence
	// publishes preceding writes (XFDetector's commit annotation).
	AnnCommitVar
	// AnnNoDrain declares a region exempt from durability checking
	// (transient scratch space registered by the library).
	AnnNoDrain
	// AnnTxAdd declares that [Addr, Addr+Size) was registered with the
	// transaction's undo log (pmemobj_tx_add_range); Agamotto's PMDK
	// transaction oracle consumes it.
	AnnTxAdd
)

var annNames = [...]string{
	AnnTxBegin:   "tx-begin",
	AnnTxEnd:     "tx-end",
	AnnPersist:   "persist",
	AnnCommitVar: "commit-var",
	AnnNoDrain:   "no-drain",
	AnnTxAdd:     "tx-add",
}

// String returns the annotation kind name.
func (k AnnKind) String() string {
	if int(k) < len(annNames) {
		return annNames[k]
	}
	return "ann?"
}

// Annotation is a library-emitted semantic hint. Each Engine owns one
// Annotation and overwrites it for every Annotate call, so a delivered
// *Annotation is valid only during OnAnnotation; observers that keep it
// must copy the value.
type Annotation struct {
	// ICount is the instruction counter at which the annotation was
	// issued (annotations do not consume counters themselves).
	ICount uint64
	// Kind is the annotation family.
	Kind AnnKind
	// Addr and Size delimit the affected region where applicable.
	Addr uint64
	Size int
}

// Hook observes the PM instruction stream. OnEvent runs synchronously in
// the instrumented execution; a hook may panic with *CrashSignal to crash
// the application at the current instruction.
//
// The *Event, and the Data it carries, are valid only during OnEvent:
// the engine reuses both for its next instruction, which is what keeps
// the instruction path free of allocations. A hook that keeps anything
// copies it. For the same reason a hook issues no instruction on the
// engine that delivered the event (it may read the engine's state, as
// EngineObservers do).
type Hook interface {
	OnEvent(*Event)
}

// AnnotationObserver is implemented by hooks that additionally consume
// library annotations (the annotation-dependent baselines).
type AnnotationObserver interface {
	OnAnnotation(*Annotation)
}

// StackDemand is implemented by hooks that need call stacks only at
// some events. The engine asks every attached StackDemand before any
// hook sees the event, and captures the stack when one of them answers
// true; WantsStack must therefore decide from the hook's state before
// the event. All hooks then see the same Event.Stack. A hook without
// this interface takes every stack Options.Capture offers.
type StackDemand interface {
	WantsStack(*Event) bool
}

// LoadDemand is implemented by hooks that choose whether they read
// loads. The engine asks WantsLoads once, when the hook is attached, and
// hands a hook that answers false no load event; it counts every load
// all the same, so instruction counters, the fuel budget and the
// deadline do not depend on which hooks are attached. A hook without
// this interface sees every load.
type LoadDemand interface {
	WantsLoads() bool
}

// EngineObserver is implemented by hooks that want a reference to the
// engine they are attached to — e.g. to read the prefix-image hash at
// event time. AttachHook calls ObserveEngine once, at
// attachment.
type EngineObserver interface {
	ObserveEngine(*Engine)
}

// CrashSignal is the panic value used to crash an instrumented execution
// at a chosen instruction. The orchestrator recovers it and materialises
// the corresponding crash image.
type CrashSignal struct {
	// ICount is the instruction at which the crash was injected.
	ICount uint64
	// Stack is the call stack of the failure point, if captured.
	Stack stack.ID
	// Reason describes why the injector crashed here.
	Reason string
}

// Error makes CrashSignal usable as an error value.
func (c *CrashSignal) Error() string {
	return fmt.Sprintf("injected crash at instruction %d: %s", c.ICount, c.Reason)
}
