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

func TestCrashAtWinsOverFuel(t *testing.T) {
	// An injected crash at the budget boundary must surface as a
	// CrashSignal, not a HangSignal: the replay reached its target.
	e := NewEngine(Options{PoolSize: 4096, MaxEvents: 5, CrashAt: 5})
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

func TestHangSignalError(t *testing.T) {
	fuel := &HangSignal{ICount: 7, Budget: 6}
	if fuel.Error() == "" || (&HangSignal{ICount: 7, Deadline: true}).Error() == "" {
		t.Fatal("HangSignal must render as an error")
	}
}

func TestCrashAtFiresWithoutHooks(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096, CrashAt: 3})
	var sig *CrashSignal
	func() {
		defer func() {
			if r := recover(); r != nil {
				sig = r.(*CrashSignal)
			}
		}()
		e.Store64(0, 1) // 1
		e.CLWB(0)       // 2
		e.SFence()      // 3 <- crash here, before the fence applies
		t.Fatal("unreachable")
	}()
	if sig == nil || sig.ICount != 3 {
		t.Fatalf("sig = %+v", sig)
	}
	// The store and the flush executed before the crash: the line holds
	// the store and is clean.
	if e.LineDirty(0) || e.Load64(0) != 1 {
		t.Fatalf("crash state: dirty %v, value %d; want a clean line holding 1", e.LineDirty(0), e.Load64(0))
	}
}

func TestCrashAtMatchesHookInjection(t *testing.T) {
	// The native fast path and a hook-based injector must stop the
	// engine in identical states.
	run := func(native bool) *Image {
		opts := Options{PoolSize: 4096}
		var hooks []Hook
		if native {
			opts.CrashAt = 5
		} else {
			hooks = append(hooks, hookFunc(func(ev *Event) {
				if ev.ICount == 5 {
					panic(&CrashSignal{ICount: 5, Reason: "hook"})
				}
			}))
		}
		e := NewEngine(opts)
		for _, h := range hooks {
			e.AttachHook(h)
		}
		func() {
			defer func() { recover() }()
			for i := uint64(0); i < 10; i++ {
				e.Store64(i*8, i+1)
				e.CLWB(i * 8)
				e.SFence()
			}
		}()
		return e.PrefixImage()
	}
	a, b := run(true).Bytes(), run(false).Bytes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("images diverge at byte %d", i)
		}
	}
}
