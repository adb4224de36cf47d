package pmem

import "testing"

func TestEADRStoresDurableWithoutFlush(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096, EADR: true})
	e.Store64(0, 7)
	e.NTStore64(64, 9)
	img := e.MediumSnapshot()
	if le64(img.Bytes()[0:]) != 7 || le64(img.Bytes()[64:]) != 9 {
		t.Fatalf("eADR snapshot lost visible stores: %d %d",
			le64(img.Bytes()[0:]), le64(img.Bytes()[64:]))
	}
}

func TestADRSnapshotStillStrict(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096})
	e.Store64(0, 7)
	if got := le64(e.MediumSnapshot().Bytes()[0:]); got != 0 {
		t.Fatalf("ADR snapshot exposed an unflushed store: %d", got)
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
	// The fence never executed: the flush is still pending.
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d; the crashed fence must not drain", len(e.queue))
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
	a, b := run(true), run(false)
	for i := range a.Bytes() {
		if a.Bytes()[i] != b.Bytes()[i] {
			t.Fatalf("images diverge at byte %d", i)
		}
	}
}
