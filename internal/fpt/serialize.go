package fpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"mumak/internal/stack"
)

// Tree artifact framing: a fixed header — magic, format version,
// payload length, payload CRC — wraps the gob payload, so a truncated
// or corrupt artifact (a crash mid-write, a stray file) is rejected
// with a diagnostic instead of feeding garbage to the gob decoder.
var treeMagic = [8]byte{'M', 'U', 'M', 'A', 'K', 'F', 'P', 'T'}

const (
	// treeVersion is the artifact format version.
	treeVersion = 1
	// treeHeaderLen is magic(8) + version(4) + payload length(8) +
	// payload CRC(4).
	treeHeaderLen = 24
	// maxTreePayload bounds the declared payload length; anything
	// larger is a corrupt header, not a multi-GiB allocation.
	maxTreePayload = 1 << 31
)

// wireLeaf is the serialised form of one failure point. Visited marks
// a leaf of the campaign's consumed prefix. ImageHash and
// ImageSize carry the crash-image equivalence stamp; gob tolerates
// their absence, so artifacts written before stamping existed decode
// with ImageSize == 0, which readers treat as unstamped (the format
// version is unchanged on purpose).
type wireLeaf struct {
	PCs         []uintptr
	FirstICount uint64
	Visited     bool
	ImageHash   uint64
	ImageSize   int
}

// wireTree is the serialised tree: the leaves with their full call
// stacks; the trie is rebuilt on load.
type wireTree struct {
	Leaves []wireLeaf
}

// Encode serialises the tree (step 5 of Fig 1 stores it in a file so a
// later fault-injection execution can deserialise it), together with the
// campaign's progress: the first consumed leaves of LeavesByICount, the
// prefix an injection campaign has consumed, are written as visited.
// Pass 0 to serialise a fresh tree. The payload is framed with a magic,
// a version, its length and a CRC so ReadTree can reject truncated or
// corrupt artifacts with a diagnostic. Program counters are only stable
// within one process image — the same constraint that makes the
// original pre-allocate Pin's memory and disable address-space
// randomisation (§5, A.3).
func (t *Tree) Encode(w io.Writer, consumed int) error {
	visited := make([]bool, len(t.leaves))
	for _, l := range t.LeavesByICount()[:consumed] {
		visited[l.ID] = true
	}
	wt := wireTree{Leaves: make([]wireLeaf, 0, len(t.leaves))}
	for _, l := range t.leaves {
		pcs := t.stacks.PCs(l.Stack)
		cp := make([]uintptr, len(pcs))
		copy(cp, pcs)
		wt.Leaves = append(wt.Leaves, wireLeaf{
			PCs:         cp,
			FirstICount: l.FirstICount,
			Visited:     visited[l.ID],
			ImageHash:   l.ImageHash,
			ImageSize:   l.ImageSize,
		})
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&wt); err != nil {
		return fmt.Errorf("fpt: encoding tree: %w", err)
	}
	var hdr [treeHeaderLen]byte
	copy(hdr[0:8], treeMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], treeVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("fpt: writing tree header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("fpt: writing tree payload: %w", err)
	}
	return nil
}

// ReadTree deserialises a tree into the given stack table, rebuilding
// the trie and re-interning every stack, and returns it frozen together
// with the number of failure points the artifact marks visited. Those
// must be a prefix of the restored tree's LeavesByICount — the only
// shape campaign progress takes — so the count says exactly which
// leaves were explored. Truncated or corrupt artifacts, visited marks
// that are not such a prefix, and files that are not tree artifacts at
// all are rejected with a diagnostic, never a decode panic.
func ReadTree(r io.Reader, stacks *stack.Table) (*Tree, int, error) {
	var hdr [treeHeaderLen]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("fpt: truncated tree artifact: %d-byte header (want %d): %v", n, treeHeaderLen, err)
	}
	if !bytes.Equal(hdr[0:8], treeMagic[:]) {
		return nil, 0, fmt.Errorf("fpt: not a failure point tree artifact (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != treeVersion {
		return nil, 0, fmt.Errorf("fpt: unsupported tree artifact version %d (want %d)", v, treeVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[12:20])
	if plen == 0 || plen > maxTreePayload {
		return nil, 0, fmt.Errorf("fpt: corrupt tree artifact: implausible payload length %d", plen)
	}
	payload := make([]byte, plen)
	if n, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("fpt: truncated tree artifact: %d of %d payload bytes: %v", n, plen, err)
	}
	if sum := binary.LittleEndian.Uint32(hdr[20:24]); crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, fmt.Errorf("fpt: corrupt tree artifact: payload checksum mismatch")
	}
	var wt wireTree
	if err := decodeTree(payload, &wt); err != nil {
		return nil, 0, fmt.Errorf("fpt: decoding tree: %w", err)
	}
	t := New(stacks)
	visited := make([]bool, len(wt.Leaves))
	consumed := 0
	for i, wl := range wt.Leaves {
		id := stacks.Intern(wl.PCs)
		leaf, added := t.Insert(id, wl.FirstICount)
		if !added {
			return nil, 0, fmt.Errorf("fpt: duplicate failure point in serialised tree")
		}
		leaf.ImageHash = wl.ImageHash
		leaf.ImageSize = wl.ImageSize
		if wl.Visited {
			visited[i] = true
			consumed++
		}
	}
	t.Freeze()
	for _, l := range t.LeavesByICount()[:consumed] {
		if !visited[l.ID] {
			return nil, 0, fmt.Errorf("fpt: corrupt tree artifact: the %d visited failure points are not the first %d in first-occurrence order", consumed, consumed)
		}
	}
	return t, consumed, nil
}

// decodeTree gob-decodes the checksummed payload, converting decoder
// panics on adversarially malformed (but checksum-matching) input into
// errors.
func decodeTree(payload []byte, wt *wireTree) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decode panic: %v", r)
		}
	}()
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(wt)
}
