package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Sealed files.
//
// Every file Mumak writes whole — the tree artifact, the journal's meta
// file and the verdict-cache file — is a sealed file: a fixed header
// (an 8-byte magic naming the kind, a u32 format version, a u64 payload
// length and a CRC-32 of the payload, all little-endian) followed by a
// gob payload, written through temp file + fsync + rename + directory
// fsync. A reader therefore sees either the old complete file or the
// new one, and a truncated, bit-flipped or foreign file is rejected
// with a diagnostic instead of reaching the gob decoder.

const (
	// sealedHeaderLen is magic(8) + version(4) + payload length(8) +
	// payload CRC(4).
	sealedHeaderLen = 24
	// maxSealedPayload bounds the declared payload length; anything
	// larger is a corrupt header, not a multi-GiB allocation.
	maxSealedPayload = 1 << 31
)

// errBadMagic is unseal's error for data that is not a sealed file of
// the expected kind.
var errBadMagic = errors.New("bad magic")

// versionMismatch is unseal's error for a sealed file of the expected
// kind in another format version.
type versionMismatch struct{ got, want uint32 }

func (e *versionMismatch) Error() string {
	return fmt.Sprintf("format version %d, this build reads only version %d", e.got, e.want)
}

// writeSealed atomically replaces the file at path with v, gob-encoded
// behind a header carrying magic and version.
func writeSealed(path string, magic [8]byte, version uint32, v any) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, sealedHeaderLen))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("campaign: encoding %s: %w", path, err)
	}
	data := buf.Bytes()
	payload := data[sealedHeaderLen:]
	copy(data[0:8], magic[:])
	binary.LittleEndian.PutUint32(data[8:12], version)
	binary.LittleEndian.PutUint64(data[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(data[20:24], crc32.ChecksumIEEE(payload))
	return writeAtomic(path, data)
}

// unseal checks the header of a sealed file against magic and version,
// verifies the payload's length and checksum, and gob-decodes it into
// v. Data that does not start with magic (or with a truncated copy of
// it) yields errBadMagic, a header of another version a
// *versionMismatch; every other defect is a one-line diagnostic.
func unseal(data []byte, magic [8]byte, version uint32, v any) error {
	if n := min(len(data), len(magic)); !bytes.Equal(data[:n], magic[:n]) {
		return errBadMagic
	}
	if len(data) < sealedHeaderLen {
		return fmt.Errorf("truncated: %d-byte header (want %d)", len(data), sealedHeaderLen)
	}
	if got := binary.LittleEndian.Uint32(data[8:12]); got != version {
		return &versionMismatch{got: got, want: version}
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	if plen == 0 || plen > maxSealedPayload {
		return fmt.Errorf("implausible payload length %d", plen)
	}
	payload := data[sealedHeaderLen:]
	if uint64(len(payload)) != plen {
		return fmt.Errorf("truncated or corrupt: payload length %d, %d bytes present", plen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[20:24]) {
		return errors.New("payload checksum mismatch")
	}
	return gobDecode(payload, v)
}

// gobDecode decodes data into v, converting decoder panics on
// adversarially malformed input into errors.
func gobDecode(data []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decode panic: %v", r)
		}
	}()
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// writeAtomic writes path via temp file + fsync + rename + directory
// fsync: the named file either keeps its old complete contents or
// holds the new complete ones, never a torn blend.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("campaign: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("campaign: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("campaign: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("campaign: publishing %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs the directory so a just-renamed or just-created entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("campaign: opening %s for sync: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("campaign: syncing %s: %w", dir, err)
	}
	return nil
}
