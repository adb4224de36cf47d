// Package workload generates the deterministic key-value workloads that
// drive the applications under test (§6.1: N operations equally
// distributed among puts, gets and deletes over a bounded keyspace).
//
// Determinism matters twice: bug reproducibility, and Mumak's
// instruction-counter optimisation, which requires that re-running the
// same workload reproduces the same instruction stream.
package workload

import "math/rand"

// Kind is the operation type.
type Kind uint8

// Operation kinds.
const (
	Put Kind = iota
	Get
	Delete
)

var kindNames = [...]string{Put: "put", Get: "get", Delete: "delete"}

// String returns the operation name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "op?"
}

// Op is one key-value operation.
type Op struct {
	// Kind selects put/get/delete.
	Kind Kind
	// Key is the operation key.
	Key uint64
	// Val is the value for puts.
	Val uint64
}

// Workload is a deterministic operation sequence.
type Workload struct {
	// Ops is the operation list, executed in order.
	Ops []Op
	// Seed reproduces the workload via Generate.
	Seed int64
}

// Len returns the number of operations.
func (w Workload) Len() int { return len(w.Ops) }

// Distribution selects how keys are drawn from the keyspace.
type Distribution uint8

// Key distributions.
const (
	// Uniform draws keys uniformly, the paper's workload shape.
	Uniform Distribution = iota
	// Zipfian draws keys with the skew typical of YCSB workloads:
	// a small hot set absorbs most operations.
	Zipfian
)

// Config parameterises Generate.
type Config struct {
	// N is the total number of operations.
	N int
	// Seed drives generation; equal seeds yield equal workloads.
	Seed int64
	// Keyspace bounds keys to [0, Keyspace); 0 means N/2, which keeps
	// collisions, overwrites and deletes-of-present-keys frequent.
	Keyspace uint64
	// PutFrac, GetFrac, DeleteFrac select the operation mix out of the
	// sum of the three; all zero means the paper's equal thirds.
	PutFrac, GetFrac, DeleteFrac int
	// Dist selects the key distribution (default Uniform).
	Dist Distribution
}

func (c Config) withDefaults() Config {
	if c.Keyspace == 0 {
		c.Keyspace = uint64(c.N/2 + 1)
	}
	if c.PutFrac == 0 && c.GetFrac == 0 && c.DeleteFrac == 0 {
		c.PutFrac, c.GetFrac, c.DeleteFrac = 1, 1, 1
	}
	return c
}

// Generate produces a deterministic workload for the configuration.
// The first few operations are always puts so that every structure has
// content before the first get or delete.
func Generate(cfg Config) Workload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.PutFrac + cfg.GetFrac + cfg.DeleteFrac
	ops := make([]Op, cfg.N)
	warmup := cfg.N / 20
	if warmup > 64 {
		warmup = 64
	}
	var zipf *rand.Zipf
	if cfg.Dist == Zipfian && cfg.Keyspace > 1 {
		zipf = rand.NewZipf(rng, 1.1, 1, cfg.Keyspace-1)
	}
	for i := range ops {
		var key uint64
		if zipf != nil {
			key = zipf.Uint64()
		} else {
			key = rng.Uint64() % cfg.Keyspace
		}
		var k Kind
		switch pick := rng.Intn(total); {
		case i < warmup || pick < cfg.PutFrac:
			k = Put
		case pick < cfg.PutFrac+cfg.GetFrac:
			k = Get
		default:
			k = Delete
		}
		ops[i] = Op{Kind: k, Key: key, Val: rng.Uint64()}
	}
	return Workload{Ops: ops, Seed: cfg.Seed}
}

// Mix reports the per-kind operation counts, for tests and reports.
func (w Workload) Mix() (puts, gets, deletes int) {
	for _, op := range w.Ops {
		switch op.Kind {
		case Put:
			puts++
		case Get:
			gets++
		default:
			deletes++
		}
	}
	return
}
