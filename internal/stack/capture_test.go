package stack_test

import . "mumak/internal/stack"

import (
	"slices"
	"sync"
	"testing"
)

func slowTable() *Table { return CallersPath(NewTable()) }

//go:noinline
func recurse(t *Table, depth int) ID {
	if depth <= 1 {
		return t.Capture(0)
	}
	return recurse(t, depth-1)
}

// inlinedCapture is small enough for the compiler to inline into its
// caller, so its frame is a logical frame inside the caller's physical one.
func inlinedCapture(t *Table) ID { return t.Capture(0) }

//go:noinline
func viaInlined(t *Table) ID { return inlinedCapture(t) }

//go:noinline
func viaClosure(t *Table) ID {
	f := func() ID { return t.Capture(0) }
	return f()
}

type capturer struct{ t *Table }

//go:noinline
func (c capturer) capture() ID { return c.t.Capture(0) }

//go:noinline
func viaMethodValue(t *Table) ID {
	f := capturer{t}.capture // called through the -fm wrapper
	return f()
}

//go:noinline
func viaDefer(t *Table) (id ID) {
	defer func() { id = t.Capture(0) }()
	return NoID
}

//go:noinline
func viaGoroutine(t *Table) ID {
	ch := make(chan ID)
	go func() { ch <- t.Capture(0) }()
	return <-ch
}

//go:noinline
func twoSites(t *Table) []ID {
	a := t.Capture(0)
	b := t.Capture(0)
	return []ID{a, b}
}

// skips captures twice from one call site: the same physical chain, so
// only the skip tells the two stacks apart.
//
//go:noinline
func skips(t *Table) []ID {
	var ids []ID
	for skip := 0; skip < 2; skip++ {
		ids = append(ids, t.Capture(skip))
	}
	return ids
}

func one(f func(*Table) ID) func(*Table) []ID {
	return func(t *Table) []ID { return []ID{f(t)} }
}

func depth(d int) func(*Table) []ID {
	return one(func(t *Table) ID { return recurse(t, d) })
}

// The memo must not change what Capture returns: for every call shape,
// a table on the frame-pointer path returns the IDs and frames of a
// table forced to the runtime.Callers path, on the first capture of a
// chain (a memo miss) and on the second (a hit).
func TestMemoMatchesCallersPath(t *testing.T) {
	shapes := []struct {
		name  string
		shape func(*Table) []ID
		// memo is whether the chain fits the walk bound and is memoised.
		memo bool
	}{
		{"depth 1", depth(1), true},
		{"depth 63", depth(63), true},
		{"depth 64", depth(64), true},
		{"depth 65", depth(65), true},
		{"depth 300", depth(300), false},
		{"inlined helper", one(viaInlined), true},
		{"closure", one(viaClosure), true},
		{"method value", one(viaMethodValue), true},
		{"deferred call", one(viaDefer), true},
		{"fresh goroutine", one(viaGoroutine), true},
		{"two call sites", twoSites, true},
		{"skip 0 and 1", skips, true},
	}
	for _, sc := range shapes {
		t.Run(sc.name, func(t *testing.T) {
			fast, slow := NewTable(), slowTable()
			for round := 0; round < 2; round++ {
				var ids [2][]ID
				for i, tbl := range []*Table{fast, slow} {
					ids[i] = sc.shape(tbl)
				}
				if !slices.Equal(ids[0], ids[1]) {
					t.Fatalf("round %d: frame-pointer path gave IDs %v, runtime.Callers path %v", round, ids[0], ids[1])
				}
				for _, id := range ids[0] {
					if id == NoID {
						t.Fatalf("round %d: capture returned NoID", round)
					}
					if f, s := fast.Frames(id), slow.Frames(id); !slices.Equal(f, s) {
						t.Fatalf("round %d: stack %d differs:\nframe-pointer path %v\nruntime.Callers path %v", round, id, f, s)
					}
				}
				if len(ids[0]) == 2 && ids[0][0] == ids[0][1] {
					t.Fatalf("round %d: two different stacks interned as %d", round, ids[0][0])
				}
			}
			if got := fast.Memoised(); fast.Walks() && (got > 0) != sc.memo {
				t.Fatalf("%d chain(s) memoised, want memoised = %v", got, sc.memo)
			}
			if slow.Memoised() != 0 {
				t.Fatal("the runtime.Callers path memoised a chain")
			}
		})
	}
}

// A chain whose hash matches a memoised chain of another skip or other
// PCs must not take that chain's ID.
func TestMemoCollisionTakesCallersPath(t *testing.T) {
	for _, bumpSkip := range []bool{false, true} {
		tbl := NewTable()
		if !tbl.Walks() {
			t.Skip("no frame-pointer walk on this platform")
		}
		var ids []ID
		for i := 0; i < 2; i++ {
			ids = append(ids, viaClosure(tbl))
			tbl.CollideMemo(ids[0]+1, bumpSkip)
		}
		if ids[1] != ids[0] {
			t.Fatalf("bumpSkip=%v: colliding chain captured as %d, want %d", bumpSkip, ids[1], ids[0])
		}
	}
}

// captureChains captures two chains shared by every goroutine number
// with the same parity and one chain of its own, rounds times, and
// returns the IDs of the first round; a later round that differs is an
// error.
func captureChains(t *testing.T, tbl *Table, g, rounds int) []ID {
	var first []ID
	for r := 0; r < rounds; r++ {
		ids := []ID{recurse(tbl, 1+g%2), viaClosure(tbl), recurse(tbl, 10+g)}
		if r == 0 {
			first = ids
		} else if !slices.Equal(ids, first) {
			t.Errorf("goroutine %d round %d captured %v, first round %v", g, r, ids, first)
			return first
		}
	}
	return first
}

// Eight goroutines capturing over shared and distinct chains intern the
// stacks a serial run interns, and keep one ID per chain.
func TestConcurrentCaptureMatchesSerial(t *testing.T) {
	const goroutines, rounds = 8, 200
	run := func(tbl *Table, concurrent bool) [][]ID {
		ids := make([][]ID, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ids[g] = captureChains(t, tbl, g, rounds)
			}(g)
			if !concurrent {
				wg.Wait()
			}
		}
		wg.Wait()
		return ids
	}
	serial := NewTable()
	serialIDs := run(serial, false)
	for _, tbl := range []*Table{NewTable(), slowTable()} {
		ids := run(tbl, true)
		toSerial := map[ID]ID{}
		for g := range ids {
			for i, id := range ids[g] {
				want := serialIDs[g][i]
				if !slices.Equal(tbl.PCs(id), serial.PCs(want)) {
					t.Fatalf("walk=%v: goroutine %d chain %d interned other PCs than the serial run", tbl.Walks(), g, i)
				}
				if prev, ok := toSerial[id]; ok && prev != want {
					t.Fatalf("walk=%v: ID %d stands for serial IDs %d and %d", tbl.Walks(), id, prev, want)
				}
				toSerial[id] = want
			}
		}
		if tbl.Len() != serial.Len() {
			t.Fatalf("walk=%v: %d stacks interned concurrently, %d serially", tbl.Walks(), tbl.Len(), serial.Len())
		}
		if n := tbl.Captures(); n != goroutines*rounds*3 {
			t.Fatalf("walk=%v: %d captures counted, want %d", tbl.Walks(), n, goroutines*rounds*3)
		}
	}
}

// BenchmarkCapture compares a memo hit with the runtime.Callers path,
// both on an already interned stack of twelve recursive frames; only
// the first capture of each sub-benchmark interns it.
func BenchmarkCapture(b *testing.B) {
	for _, bc := range []struct {
		name string
		tbl  *Table
	}{{"memo-hit", NewTable()}, {"callers-path", slowTable()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recurse(bc.tbl, 12)
			}
		})
	}
}
