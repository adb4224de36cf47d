package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// assertRolling checks the engine's view at a quiescent point against
// want, the reference model's graceful-crash image at the same point:
// PrefixImage, the frozen view, must hold its bytes, and the view's
// hash, both as the image's and as PrefixImageHash, must be its content
// hash.
func assertRolling(t *testing.T, e *Engine, want []byte, label string) {
	t.Helper()
	img := e.PrefixImage()
	if !bytes.Equal(img.Bytes(), want) {
		t.Fatalf("%s: frozen view bytes diverge from the model's prefix image", label)
	}
	if h := ContentHash(want); img.Hash() != h || e.PrefixImageHash() != h {
		t.Fatalf("%s: frozen view hash %#x, PrefixImageHash %#x, model content hash %#x",
			label, img.Hash(), e.PrefixImageHash(), h)
	}
}

// exercise runs one deterministic mixed workload on the engine and on
// the model in lockstep: cached and NT stores (full and partial lines),
// flushes of every flavour, fences, RMWs, and a burst of stores over
// lines with unfenced write-backs. After each labelled step it hands check
// the label and the model's prefix image. With eadr set it skips the
// flushes, as an eADR build does (eadrBuild).
func exercise(t *testing.T, e *Engine, m *refModel, eadr bool, check func(label string, want []byte)) {
	t.Helper()
	do := func(op refOp) {
		t.Helper()
		if eadr && op.kind.flush() {
			return
		}
		if err := step(e, m, op); err != nil {
			t.Fatal(err)
		}
	}
	at := func(label string) { check(label, m.prefixImage()) }
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	do(refOp{kind: refStore, addr: 0, data: u64(0x1111)})
	at("store64")
	do(refOp{kind: refStore, addr: 100, data: []byte{1, 2, 3, 4, 5}})
	at("unaligned store")
	do(refOp{kind: refCLWB, addr: 0})
	at("clwb")
	do(refOp{kind: refStore, addr: 0, data: u64(0x2222)}) // re-dirty a line with an unfenced write-back
	at("re-dirty after clwb")
	do(refOp{kind: refNTStore, addr: 256, data: u64(0x3333)})
	at("partial-line ntstore")
	buf := make([]byte, 192)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	do(refOp{kind: refNTStore, addr: 320, data: buf}) // full-line chunks
	at("bulk ntstore")
	do(refOp{kind: refNTStore, addr: 130, data: buf[:10]}) // partial NT overlapping a cached line
	at("nt over cached")
	do(refOp{kind: refSFence})
	at("sfence")
	do(refOp{kind: refCLFlush, addr: 100})
	at("clflush")
	do(refOp{kind: refCLFlushOpt, addr: 320})
	at("clflushopt")
	do(refOp{kind: refCAS, addr: 512, data: u64(0x4444)})
	at("cas success")
	do(refOp{kind: refCAS, addr: 512, data: u64(0x5555), fail: true})
	at("cas failure")
	do(refOp{kind: refFAA, addr: 512, data: u64(3)})
	at("faa")
	for i := uint64(0); i < 400; i++ {
		do(refOp{kind: refStore, addr: 1024 + 8*(i%64), data: u64(i)})
		if i%16 == 0 {
			do(refOp{kind: refCLWB, addr: 1024 + 8*(i%64)})
		}
	}
	at("store burst")
	do(refOp{kind: refSFence})
	at("final fence")
}

// TestRollingPrefixHashMatchesGroundTruth runs exercise on a fresh
// engine: plain as written, eadr without its flushes. Each step must
// also leave the engine with exactly the model's dirty lines. The
// interleaved case steps the engine and the model through random
// instructions mixed with freezes, folds and restarts from the engine's
// image, taken with or without a fold just before; a restart restarts
// the model from its prefix image too, every line clean.
func TestRollingPrefixHashMatchesGroundTruth(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		e := NewEngine(Options{PoolSize: 1 << 16})
		m := newRefModel(make([]byte, e.Size()))
		for i := 0; i < 300; i++ {
			for k := rng.Intn(4); k >= 0; k-- {
				switch rng.Intn(6) {
				case 0:
					e.PrefixImage()
				case 1:
					e.PrefixImageHash()
				case 2:
					if rng.Intn(2) == 0 {
						e.PrefixImageHash()
					}
					e, m = NewEngineFromImage(Options{}, e.PrefixImage()), newRefModel(m.prefixImage())
				default:
					for _, op := range genRefOps(rng, e.Size(), 1+rng.Intn(6)) {
						if err := step(e, m, op); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			label := fmt.Sprintf("step %d", i)
			assertRolling(t, e, m.prefixImage(), label)
			if err := compare(e, m, rng); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	})
	for _, tc := range []struct {
		name string
		eadr bool
	}{{"plain", false}, {"eadr", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Options{PoolSize: 1 << 16})
			m := newRefModel(make([]byte, e.Size()))
			rng := rand.New(rand.NewSource(1))
			assertRolling(t, e, m.prefixImage(), "fresh engine")
			exercise(t, e, m, tc.eadr, func(label string, want []byte) {
				assertRolling(t, e, want, label)
				if err := compare(e, m, rng); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			})
		})
	}
}

// TestRollingPrefixHashFromImage: an engine restarted from an image
// starts with its view equal to the image, and the image keeps its bytes
// while the engine writes over shared pages.
func TestRollingPrefixHashFromImage(t *testing.T) {
	src := NewEngine(Options{PoolSize: 1 << 14})
	src.Store64(64, 0xabcd)
	src.Store64(3*pageSize+8, 0xef)
	src.CLWB(64)
	src.SFence()
	src.Store64(192, 0x77) // dirty and cached: in the prefix image only
	img := src.PrefixImage()
	want := img.Bytes()
	e := NewEngineFromImage(Options{}, img)
	m := newRefModel(want)
	assertRolling(t, e, want, "restarted engine")
	exercise(t, e, m, false, func(label string, want []byte) { assertRolling(t, e, want, "post-restart "+label) })
	if !bytes.Equal(img.Bytes(), want) {
		t.Fatal("the restarted engine's writes changed its image")
	}
}

// TestRollingPrefixHashCheckpointRoundTrip proves the checkpoint
// round-trip: an engine restored from any checkpoint and gap-replayed
// to a target carries the view the recorded execution had at that
// instruction, as the model stepped in lockstep with it saw it.
func TestRollingPrefixHashCheckpointRoundTrip(t *testing.T) {
	opts := Options{PoolSize: 1 << 16, CheckpointEvery: 32}
	rec := NewEngine(opts)
	type point struct {
		icount uint64
		want   []byte
	}
	var points []point
	exercise(t, rec, newRefModel(make([]byte, rec.Size())), false, func(label string, want []byte) {
		assertRolling(t, rec, want, label)
		points = append(points, point{rec.ICount(), want})
	})
	ck := rec.Checkpoints()
	if ck.Count() == 0 {
		t.Fatal("recording produced no checkpoints")
	}
	for _, p := range points {
		if p.icount == 0 || p.icount+1 > ck.LastICount() {
			continue
		}
		// ReplayTo targets the state *before* icount; replay to the next
		// counter to land on the state after the recorded instruction.
		e, _, err := ck.ReplayTo(p.icount+1, time.Time{})
		if err != nil {
			t.Fatalf("ReplayTo(%d): %v", p.icount+1, err)
		}
		assertRolling(t, e, p.want, "restored engine")
	}
}
