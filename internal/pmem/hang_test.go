package pmem

import (
	"testing"
	"time"
)

// run executes f, returning the recovered *HangSignal (nil when f
// returned normally).
func trapHang(t *testing.T, f func()) (sig *HangSignal) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			hs, ok := r.(*HangSignal)
			if !ok {
				t.Fatalf("unexpected panic value %v", r)
			}
			sig = hs
		}
	}()
	f()
	return nil
}

func TestMaxEventsTripsHangSignal(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096, MaxEvents: 10})
	sig := trapHang(t, func() {
		for i := 0; i < 100; i++ {
			e.Load64(0)
		}
	})
	if sig == nil {
		t.Fatal("fuel budget never fired")
	}
	if sig.Budget != 10 || sig.ICount != 11 || sig.Deadline {
		t.Fatalf("HangSignal = %+v, want budget 10 tripped at instruction 11", sig)
	}
}

func TestMaxEventsZeroIsUnbounded(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096})
	if sig := trapHang(t, func() {
		for i := 0; i < 5000; i++ {
			e.Load64(0)
		}
	}); sig != nil {
		t.Fatalf("unbounded engine raised %+v", sig)
	}
}

// crashAt is a hook that crashes the engine with a *CrashSignal at one
// instruction counter, before that instruction's own change. It asks
// for no stacks, so attaching it captures none.
type crashAt uint64

func (c crashAt) OnEvent(ev *Event) {
	if ev.ICount == uint64(c) {
		panic(&CrashSignal{ICount: ev.ICount, Reason: "failure point"})
	}
}

func (crashAt) WantsStack(*Event) bool { return false }

func TestCrashAtWinsOverFuel(t *testing.T) {
	// An injected crash at the budget boundary must surface as a
	// CrashSignal, not a HangSignal: the replay reached its target.
	e := NewEngine(Options{PoolSize: 4096, MaxEvents: 5})
	e.AttachHook(crashAt(5))
	defer func() {
		if _, ok := recover().(*CrashSignal); !ok {
			t.Fatal("expected a CrashSignal at the shared boundary")
		}
	}()
	for i := 0; i < 10; i++ {
		e.Load64(0)
	}
}

func TestDeadlineTripsHangSignal(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096, Deadline: time.Now().Add(20 * time.Millisecond)})
	done := make(chan *HangSignal, 1)
	go func() {
		defer func() {
			sig, _ := recover().(*HangSignal)
			done <- sig
		}()
		for {
			e.Load64(0)
		}
	}()
	select {
	case sig := <-done:
		if sig == nil || !sig.Deadline || sig.Budget != 0 {
			t.Fatalf("HangSignal = %+v, want a deadline trip", sig)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline watchdog never preempted the loop")
	}
}

// loadless counts the events it sees and declines loads.
type loadless struct{ loads, others int }

func (h *loadless) OnEvent(ev *Event) {
	if ev.Op == OpLoad {
		h.loads++
	} else {
		h.others++
	}
}

func (*loadless) WantsLoads() bool { return false }

// The watchdogs count a load that no hook sees: the fuel budget trips
// on one, and so does the sampled deadline, at the instruction it
// would trip at with no hook attached.
func TestLoadDemandKeepsWatchdogs(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096, MaxEvents: 3})
	h := &loadless{}
	e.AttachHook(h)
	sig := trapHang(t, func() {
		e.Store64(0, 1)
		for i := 0; i < 10; i++ {
			e.Load64(0)
		}
	})
	if sig == nil || sig.ICount != 4 || sig.Budget != 3 {
		t.Fatalf("HangSignal = %+v, want budget 3 tripped by the load at instruction 4", sig)
	}
	if h.others != 1 || h.loads != 0 {
		t.Fatalf("declining hook saw %d loads and %d other events, want 0 and 1", h.loads, h.others)
	}

	e = NewEngine(Options{PoolSize: 4096, Deadline: time.Unix(1, 0)})
	e.AttachHook(&loadless{})
	sig = trapHang(t, func() {
		for i := 0; i < 2*deadlineEvery; i++ {
			e.Load64(0)
		}
	})
	if sig == nil || !sig.Deadline || sig.ICount != deadlineEvery {
		t.Fatalf("HangSignal = %+v, want the deadline tripped by the load at instruction %d", sig, deadlineEvery)
	}
}

func TestHangSignalError(t *testing.T) {
	fuel := &HangSignal{ICount: 7, Budget: 6}
	if fuel.Error() == "" || (&HangSignal{ICount: 7, Deadline: true}).Error() == "" {
		t.Fatal("HangSignal must render as an error")
	}
}
