package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Persistent cross-run verdict cache.
//
// Recovery verdicts are keyed by crash-image content, and the targets
// are deterministic: a verdict computed by one campaign is exactly as
// valid in the next run of the same campaign. Persisting the campaign's
// verdict memo therefore makes re-runs incremental — the warm campaign
// skips the replay of every class whose stamped image key was already
// judged and pays only for classes whose hash was never seen.
//
// The file uses the same durability idioms as the rest of the package:
// a fixed header (magic, version, payload length, payload CRC) wraps a
// gob payload, so truncated or corrupt files are rejected with a
// diagnostic instead of feeding garbage to the decoder; writes go
// through temp file + fsync + rename + directory fsync, so the file
// either keeps its old complete contents or holds the new complete
// ones; and the payload embeds the campaign Meta, so a cache recorded
// under different parameters is refused with the same field-by-field
// diagnostic a mismatched journal gets.

var verdictMagic = [8]byte{'M', 'U', 'M', 'A', 'K', 'V', 'D', 'C'}

const (
	// VerdictCacheVersion is the cache-file format version.
	VerdictCacheVersion = 2
	// verdictHeaderLen is magic(8) + version(4) + payload length(8) +
	// payload CRC(4).
	verdictHeaderLen = 24
	// maxVerdictPayload bounds the declared payload length; anything
	// larger is a corrupt header, not a multi-GiB allocation.
	maxVerdictPayload = 1 << 31
)

// verdictCacheFile is the serialised payload: the campaign identity the
// verdicts were recorded under plus the exported entries, in the order
// the caller gave them (core exports them sorted by key, so identical
// campaigns write identical files).
type verdictCacheFile struct {
	Meta    Meta
	Entries []CacheEntry
}

// SaveVerdictCache atomically replaces the cache file at path with the
// given entries, stamped with the campaign identity.
func SaveVerdictCache(path string, meta Meta, entries []CacheEntry) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&verdictCacheFile{Meta: meta, Entries: entries}); err != nil {
		return fmt.Errorf("campaign: encoding verdict cache: %w", err)
	}
	buf := make([]byte, verdictHeaderLen+payload.Len())
	copy(buf[0:8], verdictMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], VerdictCacheVersion)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(payload.Bytes()))
	copy(buf[verdictHeaderLen:], payload.Bytes())
	dir := filepath.Dir(path)
	return writeAtomic(dir, filepath.Base(path), buf)
}

// LoadVerdictCache reads the cache file at path and validates it
// against the campaign about to use it. A missing file is a cold start
// and returns (nil, nil); a truncated, corrupt or foreign file — or one
// recorded under different campaign parameters — is an error, never
// silently partial data.
func LoadVerdictCache(path string, run Meta) ([]CacheEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: reading verdict cache: %w", err)
	}
	if len(data) < verdictHeaderLen {
		return nil, fmt.Errorf("campaign: verdict cache %s is truncated (%d bytes)", path, len(data))
	}
	if !bytes.Equal(data[0:8], verdictMagic[:]) {
		return nil, fmt.Errorf("campaign: %s is not a verdict cache file (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != VerdictCacheVersion {
		return nil, fmt.Errorf("campaign: unsupported verdict cache version %d (want %d)", v, VerdictCacheVersion)
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	if plen == 0 || plen > maxVerdictPayload || int(plen) != len(data)-verdictHeaderLen {
		return nil, fmt.Errorf("campaign: verdict cache %s is truncated or corrupt: payload length %d, %d bytes present", path, plen, len(data)-verdictHeaderLen)
	}
	payload := data[verdictHeaderLen:]
	if sum := binary.LittleEndian.Uint32(data[20:24]); crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("campaign: verdict cache %s is corrupt: payload checksum mismatch", path)
	}
	var vf verdictCacheFile
	if err := gobDecode(payload, &vf); err != nil {
		return nil, fmt.Errorf("campaign: decoding verdict cache %s: %w", path, err)
	}
	if err := vf.Meta.Check(run); err != nil {
		return nil, fmt.Errorf("campaign: verdict cache %s: %v", path, err)
	}
	return vf.Entries, nil
}
