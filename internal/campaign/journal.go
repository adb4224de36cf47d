package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Journal directory layout: these two files are all a journal holds.
// The names are exported so tests can inspect or perturb the files
// directly.
const (
	// MetaFile holds the campaign Meta as a sealed file (magic
	// MUMAKJNL) whose header carries the journal format Version,
	// written atomically once at creation.
	MetaFile = "meta.gob"
	// JournalFile is the append-only record log: one length-prefixed,
	// CRC-checksummed, fsync'd frame per consumed failure point.
	JournalFile = "journal.log"
)

var journalMagic = [8]byte{'M', 'U', 'M', 'A', 'K', 'J', 'N', 'L'}

// maxFrame bounds one journal frame; anything larger is treated as a
// corrupt length prefix rather than a 4 GiB allocation.
const maxFrame = 16 << 20

// Journal is an open, appendable campaign journal. Append is called
// only from the campaign's single merge goroutine; the type needs no
// internal locking.
type Journal struct {
	f *os.File
}

// Create initialises a fresh campaign journal in dir, writing the
// campaign identity as a sealed meta file of format Version. It refuses a
// directory that already holds journaled verdicts: appending a
// different campaign's records after an existing prefix would corrupt
// both, so the caller must either resume (Load + Reopen) or pick a
// fresh directory.
func Create(dir string, meta Meta) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating journal directory: %w", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, JournalFile)); err == nil && fi.Size() > 0 {
		return nil, fmt.Errorf("campaign: %s already holds a campaign journal; resume it with -resume or choose a fresh directory", dir)
	}
	if err := writeSealed(filepath.Join(dir, MetaFile), journalMagic, Version, &meta); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalFile),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: creating journal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append durably appends one verdict record: the frame (length, CRC,
// gob payload) is written in a single write and fsync'd before Append
// returns, so a record the merge loop has moved past survives any
// crash. A torn in-flight frame is detected and discarded on Load.
func (j *Journal) Append(rec Record) error {
	var pb bytes.Buffer
	if err := gob.NewEncoder(&pb).Encode(&rec); err != nil {
		return fmt.Errorf("campaign: encoding journal record: %w", err)
	}
	payload := pb.Bytes()
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("campaign: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: syncing journal: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file. The records are already
// durable (Append syncs each one); Close only releases the descriptor.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// State is a loaded campaign journal: the durable prefix a crashed or
// interrupted campaign left behind, ready to be folded into a resumed
// run (core.Config.Resume) and appended to (Reopen).
type State struct {
	// Dir is the journal directory.
	Dir string
	// Meta is the campaign identity the journal was created with.
	Meta Meta
	// Records is the loadable prefix of journaled verdicts, in the
	// deterministic merge order they were appended in.
	Records []Record
	// Diagnostics lists recoverable damage found while loading (a torn
	// or corrupt journal tail); each cost at most re-replaying the
	// affected leaves.
	Diagnostics []string

	// validLen is the byte offset past the last intact record; Reopen
	// truncates a torn tail back to it before appending.
	validLen int64
}

// Load reads the durable campaign state from dir. Torn or corrupt
// journal tails are tolerated — the loadable prefix is returned and the
// damage reported in Diagnostics — but a missing or undecodable meta
// file is an error, and so is any format version but Version: without
// the campaign identity, or in another record format, the records
// cannot be safely folded into anything.
func Load(dir string) (*State, error) {
	mb, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, fmt.Errorf("campaign: no campaign journal in %s (%v)", dir, err)
	}
	st := &State{Dir: dir}
	var vm *versionMismatch
	switch err := unseal(mb, journalMagic, Version, &st.Meta); {
	case errors.Is(err, errBadMagic):
		// Formats up to 3 wrote the meta file as a bare gob stream.
		return nil, versionError(dir, "3 or earlier")
	case errors.As(err, &vm):
		return nil, versionError(dir, fmt.Sprint(vm.got))
	case err != nil:
		return nil, fmt.Errorf("campaign: corrupt journal meta in %s: %v", dir, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	payloads, ends, diag := readFrames(data)
	if diag != "" {
		st.Diagnostics = append(st.Diagnostics, diag)
	}
	for i, p := range payloads {
		var rec Record
		if err := gobDecode(p, &rec); err != nil {
			// The frame checksummed but its payload does not decode
			// (e.g. written by an incompatible build). Resume from the
			// records before it; everything after is unreachable anyway.
			st.Diagnostics = append(st.Diagnostics, fmt.Sprintf(
				"journal record %d does not decode (%v); resuming from the %d record(s) before it", i, err, i))
			break
		}
		st.Records = append(st.Records, rec)
		st.validLen = int64(ends[i])
	}
	return st, nil
}

// versionError refuses a journal written in another format version.
func versionError(dir, got string) error {
	return fmt.Errorf("campaign: journal in %s has format version %s, this build reads only version %d; start a fresh journal",
		dir, got, Version)
}

// Reopen opens the journal for appending the resumed campaign's
// verdicts after the loaded prefix. A torn tail (detected by Load) is
// truncated away first — it never held a complete record — so appended
// frames always follow the last intact one.
func (s *State) Reopen() (*Journal, error) {
	f, err := os.OpenFile(filepath.Join(s.Dir, JournalFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: reopening journal: %w", err)
	}
	if err := f.Truncate(s.validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(s.validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: seeking journal end: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: syncing reopened journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// readFrames walks the framed journal bytes, returning every intact
// payload, the byte offset past each (for tail truncation), and a
// diagnostic when a torn or corrupt tail stopped the walk early.
func readFrames(data []byte) (payloads [][]byte, ends []int, diag string) {
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			return payloads, ends, fmt.Sprintf("journal ends in a torn %d-byte frame header at offset %d; discarding it", len(data)-off, off)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n <= 0 || n > maxFrame {
			return payloads, ends, fmt.Sprintf("journal frame at offset %d has an implausible length %d; discarding the tail", off, n)
		}
		if len(data)-off-8 < n {
			return payloads, ends, fmt.Sprintf("journal ends in a torn record at offset %d (%d of %d payload bytes); discarding it", off, len(data)-off-8, n)
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, ends, fmt.Sprintf("journal record at offset %d fails its checksum; discarding the tail", off)
		}
		payloads = append(payloads, payload)
		off += 8 + n
		ends = append(ends, off)
	}
	return payloads, ends, ""
}
