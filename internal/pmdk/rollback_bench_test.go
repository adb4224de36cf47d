package pmdk_test

import (
	"fmt"
	"testing"

	"mumak/internal/pmdk"
	"mumak/internal/pmem"
)

// crashedTx returns the crash image of a transaction that logged n undo
// entries on the CLI's default 64 MiB pool and never committed. Each
// entry logs one 8-byte word on its own cache line, so the rollback
// stores and flushes n lines before its single drain.
func crashedTx(tb testing.TB, n int) *pmem.Image {
	tb.Helper()
	e := pmem.NewEngine(pmem.Options{PoolSize: 64 << 20})
	p, err := pmdk.Create(e, pmdk.V16, 64)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := p.Alloc(n * pmem.CacheLineSize)
	if err != nil {
		tb.Fatal(err)
	}
	tx, err := p.Begin()
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tx.Store64(data+uint64(i*pmem.CacheLineSize), uint64(i)+1); err != nil {
			tb.Fatal(err)
		}
	}
	return e.PrefixImage()
}

// recoverTx opens img, rolling its transaction back.
func recoverTx(tb testing.TB, img *pmem.Image) {
	tb.Helper()
	if _, err := pmdk.Open(pmem.NewEngineFromImage(pmem.Options{}, img), pmdk.V16); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkUndoRollback times pmdk.Open recovering a transaction that
// crashed with n undo entries. ns/entry stays flat as n grows when
// recovery is linear in the log.
func BenchmarkUndoRollback(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			img := crashedTx(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recoverTx(b, img)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}

// Rollback reads every header and every entry's old data into buffers
// it reuses, so recovering a long log allocates per page it copies on
// write, not per entry: 16,384 entries restore 256 pages.
func TestRollbackAllocatesPerPageNotPerEntry(t *testing.T) {
	const n = 1 << 14
	img := crashedTx(t, n)
	allocs := testing.AllocsPerRun(1, func() { recoverTx(t, img) })
	if allocs >= 1024 {
		t.Fatalf("recovering %d undo entries allocates %.0f objects, want fewer than 1024", n, allocs)
	}
}
