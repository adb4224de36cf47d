package pmem

import (
	"bytes"
	"math/bits"
	"math/rand"
)

// The reference model and the engine's dirty set, for the external tests
// that check trace.Cursor's strict durability against the model (package
// trace imports pmem, so those tests cannot live in package pmem).

// RefModel is the naive persistency model of model_test.go.
type RefModel = refModel

// RefOp is one instruction the model and the engine both run.
type RefOp = refOp

// NewRefModel returns a model of a zeroed pool of size bytes.
func NewRefModel(size int) *RefModel { return newRefModel(make([]byte, size)) }

// GenRefOps draws n instructions, failing CASes among them.
func GenRefOps(rng *rand.Rand, size, n int) []RefOp { return genRefOps(rng, size, n) }

// Step runs op on the engine and on the model and compares what they
// return.
func Step(e *Engine, m *RefModel, op RefOp) error { return step(e, m, op) }

// Durable returns a copy of the model's durable medium: the strictly
// durable image.
func (m *refModel) Durable() []byte { return bytes.Clone(m.medium) }

// DirtyLines returns the bases of the engine's dirty lines.
func DirtyLines(e *Engine) map[uint64]struct{} { return e.dirty.lines() }

// lines returns the bases of the lines s marks.
func (s lineSet) lines() map[uint64]struct{} {
	out := map[uint64]struct{}{}
	for ci, w := range s {
		if w == nil {
			continue
		}
		for wi, word := range w {
			for ; word != 0; word &= word - 1 {
				line := uint64(bits.TrailingZeros64(word))
				out[(uint64(ci)<<chunkShift|uint64(wi))<<pageShift|line*CacheLineSize] = struct{}{}
			}
		}
	}
	return out
}
