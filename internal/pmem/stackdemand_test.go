package pmem_test

import (
	"testing"

	. "mumak/internal/pmem"
	"mumak/internal/stack"
)

// The tests drive the engine from this external package: its frames are
// not instrumentation, so captured stacks survive trimming.

// stackLog records the stack each event arrived with.
type stackLog struct{ stacks []stack.ID }

func (l *stackLog) OnEvent(ev *Event) { l.stacks = append(l.stacks, ev.Stack) }
func (l *stackLog) log() []stack.ID   { return l.stacks }

// fenceDemand asks for stacks at fences only and records what it got.
type fenceDemand struct{ stackLog }

func (*fenceDemand) WantsStack(ev *Event) bool { return ev.Op.Kind() == KindFence }

// persistSome issues store, clwb, sfence, load, store, clwb, sfence.
func persistSome(e *Engine) {
	for i := 0; i < 2; i++ {
		e.Store64(64, uint64(i))
		e.CLWB(64)
		e.SFence()
		if i == 0 {
			e.Load64(64)
		}
	}
}

func TestStackDemand(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hooks    func() []Hook
		captures uint64
		// withStack lists, per hook, the event indices whose stack is
		// set.
		withStack [][]int
	}{
		{"no hooks", func() []Hook { return nil }, 0, nil},
		{"demand", func() []Hook { return []Hook{&fenceDemand{}} }, 2, [][]int{{2, 6}}},
		{"eager", func() []Hook { return []Hook{&stackLog{}} }, 4, [][]int{{1, 2, 5, 6}}},
		// Every hook sees the stack one of them asked for.
		{"demand and eager", func() []Hook { return []Hook{&fenceDemand{}, &stackLog{}} }, 4,
			[][]int{{1, 2, 5, 6}, {1, 2, 5, 6}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := stack.NewTable()
			e := NewEngine(Options{PoolSize: 4096, Capture: CapturePersistency, Stacks: tbl})
			hooks := tc.hooks()
			for _, h := range hooks {
				e.AttachHook(h)
			}
			persistSome(e)
			if got := tbl.Captures(); got != tc.captures {
				t.Fatalf("%d captures, want %d", got, tc.captures)
			}
			for i, h := range hooks {
				want := map[int]bool{}
				for _, j := range tc.withStack[i] {
					want[j] = true
				}
				for j, id := range h.(interface{ log() []stack.ID }).log() {
					if (id != stack.NoID) != want[j] {
						t.Fatalf("hook %d, event %d: stack %d, want one: %v", i, j, id, want[j])
					}
				}
			}
		})
	}
}

// The capture class bounds what any hook can get: stores carry no
// stack under CapturePersistency, however eager the hook.
func TestStackDemandWithinCaptureClass(t *testing.T) {
	tbl := stack.NewTable()
	e := NewEngine(Options{PoolSize: 4096, Stacks: tbl})
	log := &stackLog{}
	e.AttachHook(log)
	persistSome(e)
	if n := tbl.Captures(); n != 0 {
		t.Fatalf("CaptureNone engine captured %d stacks", n)
	}
}
