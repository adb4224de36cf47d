package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// refModel is a deliberately naive model of x86 persistency under ADR,
// the reference for the engine's coherent view and dirty lines and for
// trace.Cursor's strictly durable image: a flat durable medium, cached
// lines with their own data and dirty byte masks, a write-pending queue
// that every lookup scans from the start, and crash images derived from
// those three as full copies. Like hardware, and unlike the engine, it
// keeps a line cached after CLWB has cleaned it.
type refModel struct {
	medium []byte
	lines  map[uint64]*refLine
	queue  []refPending
}

type refLine struct {
	data  [CacheLineSize]byte
	dirty uint64
}

type refPending struct {
	base  uint64
	data  [CacheLineSize]byte
	dirty uint64
}

func newRefModel(medium []byte) *refModel {
	return &refModel{medium: bytes.Clone(medium), lines: map[uint64]*refLine{}}
}

// overlay copies the dirty-selected bytes of src onto dst, one at a time.
func overlay(dst []byte, src *[CacheLineSize]byte, dirty uint64) {
	for i := range src {
		if dirty&(1<<i) != 0 {
			dst[i] = src[i]
		}
	}
}

// view is the coherent contents of a line: its cached copy, or else the
// medium with every queued write-back to the line applied in issue order.
func (m *refModel) view(base uint64) [CacheLineSize]byte {
	if ln := m.lines[base]; ln != nil {
		return ln.data
	}
	var v [CacheLineSize]byte
	copy(v[:], m.medium[base:])
	for i := range m.queue {
		if m.queue[i].base == base {
			overlay(v[:], &m.queue[i].data, m.queue[i].dirty)
		}
	}
	return v
}

func (m *refModel) load(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		v := m.view(a &^ (CacheLineSize - 1))
		out[i] = v[a%CacheLineSize]
	}
	return out
}

func (m *refModel) store(addr uint64, data []byte) {
	for i, b := range data {
		a := addr + uint64(i)
		base := a &^ (CacheLineSize - 1)
		ln := m.lines[base]
		if ln == nil {
			ln = &refLine{data: m.view(base)}
			m.lines[base] = ln
		}
		ln.data[a-base] = b
		ln.dirty |= 1 << (a - base)
	}
}

// ntStore queues one write-back per line the data touches and keeps a
// cached copy of that line coherent.
func (m *refModel) ntStore(addr uint64, data []byte) {
	for i, b := range data {
		a := addr + uint64(i)
		base := a &^ (CacheLineSize - 1)
		if i == 0 || a == base {
			m.queue = append(m.queue, refPending{base: base})
		}
		p := &m.queue[len(m.queue)-1]
		p.data[a-base] = b
		p.dirty |= 1 << (a - base)
		if ln := m.lines[base]; ln != nil {
			ln.data[a-base] = b
		}
	}
}

// clflush completes the line's queued write-backs, then writes back and
// drops its cached copy.
func (m *refModel) clflush(base uint64) {
	var kept []refPending
	for _, p := range m.queue {
		if p.base == base {
			overlay(m.medium[base:], &p.data, p.dirty)
		} else {
			kept = append(kept, p)
		}
	}
	m.queue = kept
	if ln := m.lines[base]; ln != nil {
		overlay(m.medium[base:], &ln.data, ln.dirty)
		delete(m.lines, base)
	}
}

func (m *refModel) flushAsync(base uint64, invalidate bool) {
	ln := m.lines[base]
	if ln == nil {
		return
	}
	if ln.dirty != 0 {
		m.queue = append(m.queue, refPending{base: base, data: ln.data, dirty: ln.dirty})
		ln.dirty = 0
	}
	if invalidate {
		delete(m.lines, base)
	}
}

func (m *refModel) fence() {
	for _, p := range m.queue {
		overlay(m.medium[p.base:], &p.data, p.dirty)
	}
	m.queue = nil
}

func (m *refModel) prefixImage() []byte {
	img := bytes.Clone(m.medium)
	for _, p := range m.queue {
		overlay(img[p.base:], &p.data, p.dirty)
	}
	for base, ln := range m.lines {
		overlay(img[base:], &ln.data, ln.dirty)
	}
	return img
}

type refOpKind uint8

const (
	refStore refOpKind = iota
	refNTStore
	refLoad
	refCLFlush
	refCLFlushOpt
	refCLWB
	refSFence
	refMFence
	refCAS
	refFAA
)

// refOp is one generated instruction. Every op is exactly one engine
// event, so op i runs at instruction counter i+1.
type refOp struct {
	kind refOpKind
	addr uint64
	data []byte // store payload; for CAS and FAA, the 8-byte operand
	n    int    // load size
	fail bool   // CAS: compare against a value the word does not hold
}

// genRefOps draws n ops. Two thirds of the addresses fall in sixteen hot
// lines, so lines collect several queued write-backs and flushes hit
// lines with work pending; the rest spread over the whole pool and its
// page boundaries.
func genRefOps(rng *rand.Rand, size, n int) []refOp {
	ops := make([]refOp, n)
	for i := range ops {
		op := &ops[i]
		switch r := rng.Intn(20); {
		case r < 6:
			op.kind, op.data = refStore, make([]byte, 1+rng.Intn(3*CacheLineSize/2))
		case r < 8:
			op.kind, op.data = refNTStore, make([]byte, 1+rng.Intn(2*CacheLineSize))
		case r < 10:
			op.kind, op.n = refLoad, 1+rng.Intn(2*CacheLineSize)
		case r < 11:
			op.kind = refCLFlush
		case r < 13:
			op.kind = refCLFlushOpt
		case r < 15:
			op.kind = refCLWB
		case r < 16:
			op.kind = refSFence
		case r < 17:
			op.kind = refMFence
		case r < 18:
			op.kind, op.data, op.fail = refCAS, make([]byte, 8), rng.Intn(2) == 0
		default:
			op.kind, op.data = refFAA, make([]byte, 8)
		}
		rng.Read(op.data)
		if rng.Intn(3) > 0 {
			op.addr = uint64(rng.Intn(16 * CacheLineSize))
		} else {
			op.addr = uint64(rng.Intn(size - len(op.data) - op.n - 8))
		}
		if op.kind == refCAS || op.kind == refFAA {
			op.addr &^= 7
		}
	}
	return ops
}

// flush reports whether k is a cache flush.
func (k refOpKind) flush() bool { return k == refCLFlush || k == refCLFlushOpt || k == refCLWB }

// eadrBuild returns ops without their cache flushes: the stream a
// program built for an eADR platform issues, since libpmem skips the
// flushes and keeps the fences once pmem_has_auto_flush reports the
// caches inside the persistence domain. It never cleans a line, so the
// dirty set only grows.
func eadrBuild(ops []refOp) []refOp {
	var out []refOp
	for _, op := range ops {
		if !op.kind.flush() {
			out = append(out, op)
		}
	}
	return out
}

// run applies op to the model. It returns what a load reads, FAA's
// previous value, or whether a CAS succeeded.
func (m *refModel) run(op refOp) []byte {
	base := op.addr &^ (CacheLineSize - 1)
	switch op.kind {
	case refStore:
		m.store(op.addr, op.data)
	case refNTStore:
		m.ntStore(op.addr, op.data)
	case refLoad:
		return m.load(op.addr, op.n)
	case refCLFlush:
		m.clflush(base)
	case refCLFlushOpt, refCLWB:
		m.flushAsync(base, op.kind == refCLFlushOpt)
	case refSFence, refMFence:
		m.fence()
	case refCAS:
		m.fence()
		if op.fail {
			return []byte{0}
		}
		m.store(op.addr, op.data)
		return []byte{1}
	case refFAA:
		prev := binary.LittleEndian.Uint64(m.load(op.addr, 8))
		m.fence()
		m.store(op.addr, binary.LittleEndian.AppendUint64(nil, prev+binary.LittleEndian.Uint64(op.data)))
		return binary.LittleEndian.AppendUint64(nil, prev)
	}
	return nil
}

// step runs op on the engine and on the model and compares what they
// return.
func step(e *Engine, m *refModel, op refOp) error {
	var got []byte
	switch op.kind {
	case refStore:
		e.Store(op.addr, op.data)
	case refNTStore:
		e.NTStore(op.addr, op.data)
	case refLoad:
		got = make([]byte, op.n)
		e.Load(got, op.addr)
	case refCLFlush:
		e.CLFlush(op.addr)
	case refCLFlushOpt:
		e.CLFlushOpt(op.addr)
	case refCLWB:
		e.CLWB(op.addr)
	case refSFence:
		e.SFence()
	case refMFence:
		e.MFence()
	case refCAS:
		old := binary.LittleEndian.Uint64(m.load(op.addr, 8))
		if op.fail {
			old++
		}
		got = []byte{0}
		if e.CAS64(op.addr, old, binary.LittleEndian.Uint64(op.data)) {
			got[0] = 1
		}
	case refFAA:
		got = binary.LittleEndian.AppendUint64(nil, e.FAA64(op.addr, binary.LittleEndian.Uint64(op.data)))
	}
	if want := m.run(op); !bytes.Equal(got, want) {
		return fmt.Errorf("op %d at %#x returned %x, model %x", op.kind, op.addr, got, want)
	}
	return nil
}

// compare checks everything the engine derives from its view and its
// page tables against the model: the dirty lines, loads, and the bytes
// and hash of the prefix image. The engine keeps only the set of dirty
// lines, a bitmap, so it must mark exactly the model's lines with a
// non-empty dirty mask, and LineDirty must answer from it for every
// byte of a line; the model's clean cached lines must be invisible
// everywhere else.
func compare(e *Engine, m *refModel, rng *rand.Rand) error {
	dirtyLines := 0
	for base, ln := range m.lines {
		if ln.dirty != 0 {
			dirtyLines++
		}
		// Any byte of the line answers for it.
		addr := base + base/CacheLineSize%CacheLineSize
		if got := e.LineDirty(addr); got != (ln.dirty != 0) {
			return fmt.Errorf("LineDirty(%#x) = %v, model dirty mask %#x", addr, got, ln.dirty)
		}
	}
	if got := len(e.dirty.lines()); got != dirtyLines {
		return fmt.Errorf("%d dirty lines, model %d", got, dirtyLines)
	}
	prefix := m.prefixImage()
	h := ContentHash(prefix)
	img := e.PrefixImage()
	if !bytes.Equal(img.Bytes(), prefix) {
		return errors.New("PrefixImage bytes diverge")
	}
	if img.Hash() != h || e.PrefixImageHash() != h {
		return fmt.Errorf("prefix hashes %#x, %#x; content hash %#x", img.Hash(), e.PrefixImageHash(), h)
	}
	for i := 0; i < 8; i++ {
		addr := uint64(rng.Intn(16 * CacheLineSize))
		if i%2 == 1 {
			addr = uint64(rng.Intn(e.Size() - 2*CacheLineSize))
		}
		got := make([]byte, 1+rng.Intn(2*CacheLineSize))
		e.readInto(got, addr)
		if want := m.load(addr, len(got)); !bytes.Equal(got, want) {
			return fmt.Errorf("load of %d bytes at %#x diverges", len(got), addr)
		}
	}
	return nil
}

// lockstep runs ops on the engine and on the model, comparing them every
// 17 ops and at the end.
func lockstep(t *testing.T, e *Engine, m *refModel, ops []refOp, rng *rand.Rand) {
	t.Helper()
	for i, op := range ops {
		err := step(e, m, op)
		if err == nil && i%17 == 0 {
			err = compare(e, m, rng)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := compare(e, m, rng); err != nil {
		t.Fatalf("end of run: %v", err)
	}
}

// checkReplays restores the checkpoint store e recorded while it ran ops
// from the pool contents base at the first two counters, which restore
// the genesis checkpoint, and at random ones, and compares each restored
// engine with a model replayed to the same point.
func checkReplays(t *testing.T, e *Engine, base []byte, ops []refOp, rng *rand.Rand) {
	t.Helper()
	s := e.Checkpoints()
	for k := uint64(1); k <= 20; k++ {
		target := k
		if k > 2 {
			target = 1 + uint64(rng.Int63n(int64(s.LastICount())))
		}
		got, _, err := s.ReplayTo(target, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefModel(base)
		for i := 0; i < int(target)-1; i++ {
			ref.run(ops[i])
		}
		if err := compare(got, ref, rng); err != nil {
			t.Fatalf("ReplayTo(%d): %v", target, err)
		}
	}
}

// TestEngineMatchesReferenceModel drives the engine and the naive model
// with the same random instruction streams — every store and flush
// flavour, both fences, CAS and FAA — and compares them throughout. The
// model keeps the lines CLWB cleans cached and the engine drops them, so
// the comparison is also the differential showing that dropping clean
// lines cannot be observed. It then restores the recorded checkpoint
// store at random counters and compares each restored engine with a
// model replayed to the same point. An engine restarted from a crash
// image is compared the same way, checkpoint restores included. Each
// run is repeated on the stream an eADR build issues (eadrBuild), whose
// dirty set is never cleaned.
func TestEngineMatchesReferenceModel(t *testing.T) {
	const size, n = 1 << 16, 1500
	stream := func(ops []refOp, eadr bool) []refOp {
		if eadr {
			return eadrBuild(ops)
		}
		return ops
	}
	src := NewEngine(Options{PoolSize: size})
	lockstep(t, src, newRefModel(make([]byte, size)), genRefOps(rand.New(rand.NewSource(31)), size, 600),
		rand.New(rand.NewSource(32)))
	img := src.PrefixImage()
	want := img.Bytes()
	for _, eadr := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("seed=%d/eadr=%v", seed, eadr), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ops := stream(genRefOps(rng, size, n), eadr)
				e := NewEngine(Options{PoolSize: size, CheckpointEvery: 97})
				lockstep(t, e, newRefModel(make([]byte, size)), ops, rng)
				checkReplays(t, e, make([]byte, size), ops, rng)
			})
		}
		t.Run(fmt.Sprintf("image=engine/eadr=%v", eadr), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			e := NewEngineFromImage(Options{CheckpointEvery: 97}, img)
			m := newRefModel(want)
			if err := compare(e, m, rng); err != nil {
				t.Fatalf("restarted engine: %v", err)
			}
			ops := stream(genRefOps(rng, size, n), eadr)
			lockstep(t, e, m, ops, rng)
			checkReplays(t, e, want, ops, rng)
		})
	}
}

// TestEngineFromImageIsolation: engines built from one image share its
// pages, so what each one writes must stay its own. Sibling engines and
// the source engine all run at once (the test runs under -race in CI);
// the image keeps its bytes and each engine matches its own model.
func TestEngineFromImageIsolation(t *testing.T) {
	const size = 1 << 16
	src := NewEngine(Options{PoolSize: size})
	srcModel := newRefModel(make([]byte, size))
	for _, op := range genRefOps(rand.New(rand.NewSource(21)), size, 600) {
		if err := step(src, srcModel, op); err != nil {
			t.Fatal(err)
		}
	}
	img := src.PrefixImage()
	want := img.Bytes()

	var wg sync.WaitGroup
	errs := make(chan error, 5)
	run := func(e *Engine, m *refModel, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for _, op := range genRefOps(rng, size, 600) {
			if err := step(e, m, op); err != nil {
				errs <- fmt.Errorf("engine %d: %w", seed, err)
				return
			}
		}
		if err := compare(e, m, rng); err != nil {
			errs <- fmt.Errorf("engine %d: %w", seed, err)
		}
	}
	wg.Add(5)
	for seed := int64(100); seed < 104; seed++ {
		go func() {
			run(NewEngineFromImage(Options{}, img), newRefModel(want), seed)
		}()
	}
	go run(src, srcModel, 99)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !bytes.Equal(img.Bytes(), want) {
		t.Fatal("writes by engines sharing the image changed the image")
	}
}
