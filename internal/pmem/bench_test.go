package pmem_test

import (
	"fmt"
	"testing"

	"mumak/internal/pmem"
	"mumak/internal/trace"
)

func BenchmarkEngineStore64(b *testing.B) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Store64(uint64(i%(1<<17))*8, uint64(i))
	}
}

func BenchmarkEnginePersistCycle(b *testing.B) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%(1<<14)) * 64
		e.Store64(addr, uint64(i))
		e.CLWB(addr)
		e.SFence()
	}
}

// BenchmarkEngineLoad64 measures one load from a written pool with one
// hook attached: one that declines loads (pmem.LoadDemand), as Mumak's
// hooks do, and one without the interface, which sees every load.
func BenchmarkEngineLoad64(b *testing.B) {
	for _, tc := range []struct {
		name string
		hook pmem.Hook
	}{
		{"declines-loads", &noLoads{}},
		{"reads-loads", &nopHook{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 20})
			for addr := uint64(0); addr < 1<<20; addr += 4096 {
				e.Store64(addr, addr)
			}
			e.AttachHook(tc.hook)
			var sum uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += e.Load64(uint64(i%(1<<17)) * 8)
			}
			loadSink = sum
		})
	}
}

// loadSink keeps BenchmarkEngineLoad64's loads from being optimised out.
var loadSink uint64

// nopHook sees every event and does nothing with it.
type nopHook struct{}

func (*nopHook) OnEvent(*pmem.Event) {}

func BenchmarkEngineWithRecorder(b *testing.B) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 20})
	rec := trace.NewRecorder()
	e.AttachHook(rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Store64(uint64(i%(1<<17))*8, uint64(i))
	}
}

// BenchmarkCrashImageMaterialisation measures the cost of taking the
// graceful-crash snapshot from a warm engine. The cow variant is the
// engine path: the frozen page table, sharing every page the snapshot
// does not change. The flat variant also materialises a private
// full-pool copy each time (Image.Bytes) — the pre-COW cost every
// snapshot used to pay.
func BenchmarkCrashImageMaterialisation(b *testing.B) {
	for _, poolMB := range []int{1, 4} {
		size := poolMB << 20
		for _, mode := range []string{"cow", "flat"} {
			b.Run(fmt.Sprintf("%s/pool-%dmb", mode, poolMB), func(b *testing.B) {
				e := pmem.NewEngine(pmem.Options{PoolSize: size})
				e.PrefixImage() // establish the snapshot base
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// A handful of persisted lines between snapshots, the
					// shape of consecutive counter-mode failure points.
					for j := 0; j < 4; j++ {
						addr := uint64((i*4+j)%(size/64)) * 64
						e.Store64(addr, uint64(i))
						e.CLWB(addr)
						e.SFence()
					}
					img := e.PrefixImage()
					n := img.Len()
					if mode == "flat" {
						n = len(img.Bytes())
					}
					if n != size {
						b.Fatal("bad image")
					}
				}
			})
		}
	}
}
