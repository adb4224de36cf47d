package fpt_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"strings"
	"testing"

	. "mumak/internal/fpt"
	"mumak/internal/stack"
)

// encodeFixture serialises a small two-leaf tree, returning the
// artifact bytes.
func encodeFixture(t *testing.T) []byte {
	t.Helper()
	st := stack.NewTable()
	tree := New(st)
	tree.Insert(st.Intern([]uintptr{10, 20, 30}), 5)
	tree.Insert(st.Intern([]uintptr{11, 20, 30}), 9)
	tree.Freeze()
	var buf bytes.Buffer
	if err := tree.Encode(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTreeRejectsDamagedArtifacts: every way a saved artifact can
// be damaged on disk — truncated at any byte, bit-flipped payload,
// wrong magic, wrong version, implausible length, visited marks that
// are not a first-occurrence prefix — must produce a one-line
// diagnostic error, never a gob panic, a silently empty tree or a
// wrong progress count.
func TestReadTreeRejectsDamagedArtifacts(t *testing.T) {
	full := encodeFixture(t)

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(full); cut += 3 {
			_, _, err := ReadTree(bytes.NewReader(full[:cut]), stack.NewTable())
			if err == nil {
				t.Fatalf("truncation at byte %d accepted", cut)
			}
		}
	})
	t.Run("payload-bitflip", func(t *testing.T) {
		data := append([]byte(nil), full...)
		data[len(data)-3] ^= 0x40
		_, _, err := ReadTree(bytes.NewReader(data), stack.NewTable())
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit-flipped payload: err=%v, want checksum diagnostic", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		data := append([]byte(nil), full...)
		data[0] ^= 0xff
		_, _, err := ReadTree(bytes.NewReader(data), stack.NewTable())
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad magic: err=%v, want magic diagnostic", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		data := append([]byte(nil), full...)
		data[8] = 0xee // version field follows the 8-byte magic
		_, _, err := ReadTree(bytes.NewReader(data), stack.NewTable())
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("bad version: err=%v, want version diagnostic", err)
		}
	})
	t.Run("implausible-length", func(t *testing.T) {
		data := append([]byte(nil), full...)
		for i := 12; i < 20; i++ {
			data[i] = 0xff
		}
		_, _, err := ReadTree(bytes.NewReader(data), stack.NewTable())
		if err == nil || !strings.Contains(err.Error(), "length") {
			t.Fatalf("implausible length: err=%v, want length diagnostic", err)
		}
	})
	t.Run("corrupt-gob-with-valid-checksum", func(t *testing.T) {
		// A payload that frames and checksums correctly but is not a gob
		// stream must error, not panic: swap in garbage and re-stamp the
		// header's length and checksum fields.
		garbage := []byte("\x7f\x03definitely not a gob stream")
		data := append([]byte(nil), full[:24]...)
		binary.LittleEndian.PutUint64(data[12:20], uint64(len(garbage)))
		binary.LittleEndian.PutUint32(data[20:24], crc32.ChecksumIEEE(garbage))
		data = append(data, garbage...)
		_, _, err := ReadTree(bytes.NewReader(data), stack.NewTable())
		if err == nil {
			t.Fatal("well-framed garbage payload accepted")
		}
	})
	t.Run("visited-not-a-prefix", func(t *testing.T) {
		// The later of the fixture's two leaves marked visited, the
		// earlier not: a campaign never leaves progress in that shape.
		// gob matches fields by name, so mirror types frame it.
		type leaf struct {
			PCs         []uintptr
			FirstICount uint64
			Visited     bool
		}
		type tree struct{ Leaves []leaf }
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(tree{Leaves: []leaf{
			{PCs: []uintptr{10, 20, 30}, FirstICount: 5},
			{PCs: []uintptr{11, 20, 30}, FirstICount: 9, Visited: true},
		}}); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), full[:24]...)
		binary.LittleEndian.PutUint64(data[12:20], uint64(payload.Len()))
		binary.LittleEndian.PutUint32(data[20:24], crc32.ChecksumIEEE(payload.Bytes()))
		data = append(data, payload.Bytes()...)
		_, _, err := ReadTree(bytes.NewReader(data), stack.NewTable())
		if err == nil || !strings.Contains(err.Error(), "first-occurrence order") {
			t.Fatalf("visited marks off the prefix: err=%v, want a prefix diagnostic", err)
		}
	})
}
