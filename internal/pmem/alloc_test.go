package pmem_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mumak/internal/pmem"
	"mumak/internal/stack"
)

// step issues every instruction once: the three stores, both loads, the
// three flushes, both fences, a succeeding and a failing CAS, and FAA,
// plus one annotation. The word at 0x1c0 stays 0, so the first CAS
// always succeeds and the second always fails.
func step(e *pmem.Engine, src, dst []byte) {
	e.Store(0x100, src)
	e.Store64(0x140, 1)
	e.NTStore64(0x180, 2)
	e.Load(dst, 0x100)
	e.Load64(0x140)
	e.CLFlush(0x100)
	e.CLFlushOpt(0x140)
	e.CLWB(0x180)
	e.SFence()
	e.MFence()
	e.CAS64(0x1c0, 0, 0)
	e.CAS64(0x1c0, 1, 2)
	e.FAA64(0x1c8, 3)
	e.Annotate(pmem.AnnPersist, 0x100, 8)
}

const stepEvents = 13

// everyStack takes every stack the engine offers.
type everyStack struct{ events, stacks, anns int }

func (h *everyStack) OnEvent(ev *pmem.Event) {
	h.events++
	if ev.Stack != stack.NoID {
		h.stacks++
	}
}

func (h *everyStack) OnAnnotation(*pmem.Annotation) { h.anns++ }

// fenceStacks asks for the stacks of fences (RMWs included) only.
type fenceStacks struct{ *everyStack }

func (fenceStacks) WantsStack(ev *pmem.Event) bool { return ev.Op.Kind() == pmem.KindFence }

// storeStacks takes every stack, like everyStack, but declines loads.
type storeStacks struct{ *everyStack }

func (storeStacks) WantsLoads() bool { return false }

// The path from an instruction to its hooks allocates nothing in steady
// state: emit reuses the engine's one Event and operand buffer, so the
// operands of Store64, NTStore64, CAS64 and FAA64 stay on the stack, and
// Load fills the caller's buffer. It holds with a hook that takes every
// stack, with a StackDemand hook, and with a hook that declines loads.
func TestInstructionPathDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hook   func(*everyStack) pmem.Hook
		events int // events per step the hook sees
		stacks int // stacks per step
	}{
		{"every-stack", func(c *everyStack) pmem.Hook { return c }, stepEvents, stepEvents - 2},
		{"stack-demand", func(c *everyStack) pmem.Hook { return fenceStacks{c} }, stepEvents, 5},
		{"declines-loads", func(c *everyStack) pmem.Hook { return storeStacks{c} }, stepEvents - 2, stepEvents - 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 16, Capture: pmem.CaptureStores})
			c := &everyStack{}
			e.AttachHook(tc.hook(c))
			src, dst := make([]byte, 24), make([]byte, 16)
			var allocs float64
			// The first pass grows the engine's buffers, copies the
			// pages it writes and memoises the stacks of AllocsPerRun's
			// two call sites; the second is steady state.
			for pass := 0; pass < 2; pass++ {
				allocs = testing.AllocsPerRun(50, func() { step(e, src, dst) })
			}
			if allocs != 0 {
				t.Errorf("a %d-instruction step allocates %.1f objects, want 0", stepEvents, allocs)
			}
			steps := 2 * 51
			if c.events != steps*tc.events || c.stacks != steps*tc.stacks || c.anns != steps {
				t.Errorf("hook saw %d events, %d stacks and %d annotations over %d steps; want %d, %d and %d",
					c.events, c.stacks, c.anns, steps, steps*tc.events, steps*tc.stacks, steps)
			}
			if e.Events() != uint64(steps*stepEvents) {
				t.Errorf("engine counted %d events over %d steps, want %d", e.Events(), steps, steps*stepEvents)
			}
		})
	}
}

// seen is one delivered event as a hook saw it during OnEvent.
type seen struct {
	op            pmem.Opcode
	data          []byte
	stack         bool
	aliasesCaller bool
}

// eventLog copies what each event carries; it wants the stacks of
// fences only.
type eventLog struct {
	caller []byte
	evs    []seen
}

func (l *eventLog) WantsStack(ev *pmem.Event) bool { return ev.Op.Kind() == pmem.KindFence }

func (l *eventLog) OnEvent(ev *pmem.Event) {
	l.evs = append(l.evs, seen{
		op:            ev.Op,
		data:          bytes.Clone(ev.Data),
		stack:         ev.Stack != stack.NoID,
		aliasesCaller: len(ev.Data) > 0 && &ev.Data[0] == &l.caller[0],
	})
}

// The engine reuses one Event, so each event must be overwritten whole:
// Data is set on stores and RMWs only, to the engine's copy of the value
// the instruction leaves (a failed CAS leaves the word as it was), and
// Stack only where a hook asked for it.
func TestEventCarriesOnlyItsInstruction(t *testing.T) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 16, Capture: pmem.CaptureStores})
	src := bytes.Repeat([]byte{0xab}, 24)
	l := &eventLog{caller: src}
	e.AttachHook(l)
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for i := uint64(0); i < 2; i++ {
		l.evs = l.evs[:0]
		step(e, src, make([]byte, 16))
		want := []seen{
			{op: pmem.OpStore, data: src},
			{op: pmem.OpStore, data: le(1)},
			{op: pmem.OpNTStore, data: le(2)},
			{op: pmem.OpLoad},
			{op: pmem.OpLoad},
			{op: pmem.OpCLFlush},
			{op: pmem.OpCLFlushOpt},
			{op: pmem.OpCLWB},
			{op: pmem.OpSFence, stack: true},
			{op: pmem.OpMFence, stack: true},
			{op: pmem.OpRMW, data: le(0), stack: true},
			{op: pmem.OpRMW, data: le(0), stack: true},
			{op: pmem.OpRMW, data: le(3 * (i + 1)), stack: true},
		}
		if len(l.evs) != len(want) {
			t.Fatalf("step %d: %d events, want %d", i, len(l.evs), len(want))
		}
		for j, got := range l.evs {
			w := want[j]
			if got.op != w.op || !bytes.Equal(got.data, w.data) || got.stack != w.stack || got.aliasesCaller {
				t.Errorf("step %d, event %d: got %s data %x stack %v aliases caller %v; want %s data %x stack %v",
					i, j, got.op, got.data, got.stack, got.aliasesCaller, w.op, w.data, w.stack)
			}
		}
	}
}
