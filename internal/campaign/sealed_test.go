package campaign

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sealedKind is one kind of sealed file: how to write a pristine one
// into a fresh directory, returning its path, and how to load it.
type sealedKind struct {
	name  string
	write func(t *testing.T, dir string) string
	load  func(path string) error
	// badMagic is the diagnostic a file without the kind's magic gets.
	badMagic string
}

func sealedKinds() []sealedKind {
	return []sealedKind{
		{
			name: "verdict-cache",
			write: func(t *testing.T, dir string) string {
				meta, entries := verdictFixture()
				path := filepath.Join(dir, "verdicts.bin")
				if err := SaveVerdictCache(path, meta, entries); err != nil {
					t.Fatal(err)
				}
				return path
			},
			load: func(path string) error {
				_, err := LoadVerdictCache(path, testMeta())
				return err
			},
			badMagic: "magic",
		},
		{
			name: "journal-meta",
			write: func(t *testing.T, dir string) string {
				j, err := Open(dir, testMeta())
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				return filepath.Join(dir, MetaFile)
			},
			load: func(path string) error {
				_, err := Load(filepath.Dir(path))
				return err
			},
			// A meta file without the magic was written by a format
			// that did not seal it.
			badMagic: "version 3 or earlier",
		},
	}
}

// reseal frames payload behind header with a matching length and
// checksum: a well-framed file whose payload is whatever the test says.
func reseal(header, payload []byte) []byte {
	data := append([]byte(nil), header[:sealedHeaderLen]...)
	binary.LittleEndian.PutUint64(data[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(data[20:24], crc32.ChecksumIEEE(payload))
	return append(data, payload...)
}

// TestSealedFilesRejectDamage: every way a sealed file can be damaged on
// disk — truncated at any byte, bit-flipped payload, wrong magic, wrong
// version, implausible length, a well-framed payload that is not gob —
// must produce a one-line diagnostic error for every kind of sealed
// file, never a gob panic, silently empty contents or a campaign
// identity other than the one written.
func TestSealedFilesRejectDamage(t *testing.T) {
	for _, k := range sealedKinds() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			path := k.write(t, t.TempDir())
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.load(path); err != nil {
				t.Fatalf("pristine file rejected: %v", err)
			}
			// damaged loads data in place of the pristine file and
			// requires an error containing want.
			damaged := func(t *testing.T, data []byte, want string) {
				t.Helper()
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				err := k.load(path)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err=%v, want a diagnostic containing %q", err, want)
				}
				if strings.ContainsRune(err.Error(), '\n') {
					t.Fatalf("diagnostic is not a single line: %q", err)
				}
			}
			t.Run("truncated", func(t *testing.T) {
				for cut := 0; cut < len(full); cut += 3 {
					damaged(t, full[:cut], "")
				}
			})
			t.Run("payload-bitflip", func(t *testing.T) {
				data := append([]byte(nil), full...)
				data[len(data)-3] ^= 0x40
				damaged(t, data, "checksum")
			})
			t.Run("bad-magic", func(t *testing.T) {
				data := append([]byte(nil), full...)
				data[0] ^= 0xff
				damaged(t, data, k.badMagic)
			})
			t.Run("bad-version", func(t *testing.T) {
				data := append([]byte(nil), full...)
				data[8] = 0xee // the version field follows the 8-byte magic
				damaged(t, data, "version")
			})
			t.Run("implausible-length", func(t *testing.T) {
				data := append([]byte(nil), full...)
				for i := 12; i < 20; i++ {
					data[i] = 0xff
				}
				damaged(t, data, "length")
			})
			t.Run("corrupt-gob-with-valid-checksum", func(t *testing.T) {
				damaged(t, reseal(full, []byte("\x7f\x03definitely not a gob stream")), "")
			})
		})
	}
}
