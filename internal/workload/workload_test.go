package workload

import (
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{N: 1000, Seed: 7})
	b := Generate(Config{N: 1000, Seed: 7})
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("lengths differ")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Config{N: 100, Seed: 1})
	b := Generate(Config{N: 100, Seed: 2})
	same := true
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestMixRoughlyEqualThirds(t *testing.T) {
	w := Generate(Config{N: 30000, Seed: 3})
	puts, gets, dels := w.Mix()
	third := 10000
	for name, n := range map[string]int{"puts": puts, "gets": gets, "deletes": dels} {
		if n < third*8/10 || n > third*12/10 {
			t.Errorf("%s = %d, want ~%d", name, n, third)
		}
	}
}

func TestWarmupIsAllPuts(t *testing.T) {
	w := Generate(Config{N: 1000, Seed: 9})
	for i := 0; i < 1000/20; i++ {
		if w.Ops[i].Kind != Put {
			t.Fatalf("warmup op %d is %v, want put", i, w.Ops[i].Kind)
		}
	}
}

func TestCustomMix(t *testing.T) {
	w := Generate(Config{N: 10000, Seed: 4, PutFrac: 1, GetFrac: 0, DeleteFrac: 0})
	puts, gets, dels := w.Mix()
	if gets != 0 || dels != 0 || puts != 10000 {
		t.Fatalf("mix = %d/%d/%d, want all puts", puts, gets, dels)
	}
}

func TestPropertyKeysWithinKeyspace(t *testing.T) {
	f := func(seed int64, ksRaw uint16) bool {
		ks := uint64(ksRaw%1000) + 1
		w := Generate(Config{N: 200, Seed: seed, Keyspace: ks})
		for _, op := range w.Ops {
			if op.Key >= ks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfianSkew(t *testing.T) {
	w := Generate(Config{N: 20000, Seed: 5, Keyspace: 1000, Dist: Zipfian})
	counts := map[uint64]int{}
	for _, op := range w.Ops {
		counts[op.Key]++
	}
	// The hottest key should absorb far more than the uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 5*20000/1000 {
		t.Fatalf("hottest key hit %d times; zipfian skew absent", max)
	}
}
