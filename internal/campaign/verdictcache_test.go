package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"mumak/internal/oracle"
)

func verdictFixture() (Meta, []CacheEntry) {
	meta := testMeta()
	entries := []CacheEntry{
		{Hash: 0x1111, Size: 4096, Judgement: Judgement{Verdict: oracle.Consistent}},
		{Hash: 0x2222, Size: 4096, Judgement: Judgement{Verdict: oracle.Unrecoverable,
			Detail: "recovery flagged the state unrecoverable: torn count"}},
		{Hash: 0x3333, Size: 4096, Judgement: Judgement{Verdict: oracle.Crashed,
			Detail: "recovery crashed abruptly: index out of range\nrecovery trace:\n  main.f at f.go:1"}},
	}
	return meta, entries
}

func TestVerdictCacheRoundTrip(t *testing.T) {
	meta, entries := verdictFixture()
	path := filepath.Join(t.TempDir(), "verdicts.bin")
	if err := SaveVerdictCache(path, meta, entries); err != nil {
		t.Fatal(err)
	}
	got, err := LoadVerdictCache(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d round-tripped as %+v, want %+v", i, got[i], entries[i])
		}
	}
	// Saving again overwrites atomically rather than appending.
	if err := SaveVerdictCache(path, meta, entries[:1]); err != nil {
		t.Fatal(err)
	}
	if got, err = LoadVerdictCache(path, meta); err != nil || len(got) != 1 {
		t.Fatalf("after overwrite: %d entries, err %v", len(got), err)
	}
}

func TestVerdictCacheMissingFileIsColdStart(t *testing.T) {
	got, err := LoadVerdictCache(filepath.Join(t.TempDir(), "nope.bin"), Meta{})
	if err != nil || got != nil {
		t.Fatalf("missing file: entries=%v err=%v, want nil/nil", got, err)
	}
}

func TestVerdictCacheRejectsMetaMismatch(t *testing.T) {
	meta, entries := verdictFixture()
	path := filepath.Join(t.TempDir(), "verdicts.bin")
	if err := SaveVerdictCache(path, meta, entries); err != nil {
		t.Fatal(err)
	}
	other := meta
	other.Seed = 7
	if _, err := LoadVerdictCache(path, other); err == nil {
		t.Fatal("cache recorded under a different seed was accepted")
	}
}

// TestVerdictCacheRejectsCorruption: fixed flips and tears of a
// verdict-cache file, at offsets the every-third-byte sweep of
// TestSealedFilesRejectDamage need not hit, are refused.
func TestVerdictCacheRejectsCorruption(t *testing.T) {
	meta, entries := verdictFixture()
	dir := t.TempDir()
	path := filepath.Join(dir, "verdicts.bin")
	if err := SaveVerdictCache(path, meta, entries); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadVerdictCache(p, meta); err == nil {
			t.Fatalf("%s: corrupt cache accepted", name)
		}
	}
	corrupt("flipped-payload", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	corrupt("flipped-header", func(b []byte) []byte { b[0] ^= 0x01; return b })
	corrupt("bad-version", func(b []byte) []byte { b[8] = 99; return b })
	corrupt("torn-tail", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("torn-header", func(b []byte) []byte { return b[:10] })
}
