package fpt_test

import (
	"testing"

	"mumak/internal/fpt"
	"mumak/internal/stack"
)

func BenchmarkFPTInsertLookup(b *testing.B) {
	st := stack.NewTable()
	tree := fpt.New(st)
	ids := make([]stack.ID, 256)
	for i := range ids {
		ids[i] = st.Intern([]uintptr{uintptr(i), uintptr(i >> 2), 7, 9})
		tree.Insert(ids[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree.Lookup(ids[i%256]) == nil {
			b.Fatal("lost leaf")
		}
	}
}
