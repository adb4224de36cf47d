package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mumak/internal/oracle"
)

// testMeta sets every identity field, so round trips and the mismatch
// table exercise all of them.
func testMeta() Meta {
	return Meta{
		Target: "btree", Ops: 300, Seed: 42, StackMode: true, StoreGranularity: true, EADR: true,
		WithRecovery: true, PMDK: "1.6", SPT: true, SeedBugs: []string{"btree/a", "btree/b"},
		MontageBuggy: true, PoolMB: 64, HangBudget: 30000, RecoveryTimeout: 2 * time.Second,
	}
}

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			LeafID: i, LeafICount: uint64(10 * (i + 1)), Events: uint64(100 + i),
			Source: Source(i % 3), Injected: true,
			FindingICount: uint64(10 * (i + 1)),
		}
		if i%3 == 0 {
			recs[i].Judgement = Judgement{Verdict: oracle.Unrecoverable, Detail: "unflushed line"}
		}
	}
	return recs
}

// writeJournal creates a journal in a fresh temp dir and appends the
// records, returning the directory.
func writeJournal(t *testing.T, recs []Record) string {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestJournalRoundTrip(t *testing.T) {
	recs := testRecords(5)
	dir := writeJournal(t, recs)
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Diagnostics) != 0 {
		t.Fatalf("clean journal produced diagnostics: %v", st.Diagnostics)
	}
	if err := st.Meta.Check(testMeta()); err != nil {
		t.Fatalf("meta did not round-trip: %v", err)
	}
	// The journal is the campaign's only progress state: two files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{JournalFile, MetaFile}; !reflect.DeepEqual(names, want) {
		t.Fatalf("journal directory holds %v, want %v", names, want)
	}
	if len(st.Records) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(st.Records), len(recs))
	}
	for i, rec := range st.Records {
		if rec != recs[i] {
			t.Fatalf("record %d did not round-trip: got %+v want %+v", i, rec, recs[i])
		}
	}
}

// TestJournalTornTail truncates the journal at every possible byte
// offset — simulating a kill -9 mid-append — and checks that each
// prefix loads the records whose frames are complete, with a
// diagnostic whenever bytes were discarded.
func TestJournalTornTail(t *testing.T) {
	recs := testRecords(4)
	dir := writeJournal(t, recs)
	path := filepath.Join(dir, JournalFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: offsets at which a prefix holds exactly k records.
	ends := []int{0}
	off := 0
	for off < len(full) {
		n := int(binary.LittleEndian.Uint32(full[off : off+4]))
		off += 8 + n
		ends = append(ends, off)
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		complete := 0
		for _, e := range ends {
			if cut >= e && e > 0 {
				complete++
			}
		}
		if len(st.Records) != complete {
			t.Fatalf("cut=%d: loaded %d records, want %d", cut, len(st.Records), complete)
		}
		torn := cut != ends[complete]
		if torn && len(st.Diagnostics) == 0 {
			t.Fatalf("cut=%d: torn tail produced no diagnostic", cut)
		}
		if !torn && len(st.Diagnostics) != 0 {
			t.Fatalf("cut=%d: clean prefix produced a journal diagnostic: %v", cut, st.Diagnostics)
		}
	}
}

func TestJournalCorruptChecksum(t *testing.T) {
	recs := testRecords(3)
	dir := writeJournal(t, recs)
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record.
	n0 := int(binary.LittleEndian.Uint32(data[0:4]))
	data[8+n0+8+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 1 {
		t.Fatalf("loaded %d records past a corrupt frame, want 1", len(st.Records))
	}
	if len(st.Diagnostics) == 0 {
		t.Fatalf("corrupt checksum produced no diagnostic: %v", st.Diagnostics)
	}
}

func TestJournalImplausibleLength(t *testing.T) {
	dir := writeJournal(t, testRecords(2))
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 8)
	binary.LittleEndian.PutUint32(garbage[0:4], 1<<31) // > maxFrame
	if err := os.WriteFile(path, append(data, garbage...), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 2 || len(st.Diagnostics) == 0 {
		t.Fatalf("garbage tail: %d records, diags %v", len(st.Records), st.Diagnostics)
	}
}

// TestCreateRefusesExistingJournal: Open creates a journal only where
// it can lose no record. A journal of another campaign is refused
// naming the differing field, and records without a meta file are
// refused too; neither refusal touches the record log.
func TestCreateRefusesExistingJournal(t *testing.T) {
	dir := writeJournal(t, testRecords(1))
	log := filepath.Join(dir, JournalFile)
	size := fileSize(t, log)
	other := testMeta()
	other.Ops++
	if _, err := Open(dir, other); err == nil || !strings.Contains(err.Error(), "Ops=") {
		t.Fatalf("Open of another campaign's journal = %v, want a refusal naming Ops", err)
	}
	if err := os.Remove(filepath.Join(dir, MetaFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testMeta()); err == nil || !strings.Contains(err.Error(), "fresh directory") {
		t.Fatalf("Open of records without a meta file = %v, want a refusal pointing at a fresh directory", err)
	}
	if got := fileSize(t, log); got != size {
		t.Fatalf("refused Opens changed the record log from %d to %d bytes", size, got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestMetaCheckMismatches flips each identity field in turn — walked by
// reflection, so a field added to Meta is covered without editing the
// test — and requires Check to name exactly that field.
func TestMetaCheckMismatches(t *testing.T) {
	base := testMeta()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		t.Run(name, func(t *testing.T) {
			run := testMeta()
			f := reflect.ValueOf(&run).Elem().Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "-other")
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Slice:
				f.Set(reflect.Append(f, reflect.ValueOf("other")))
			default:
				t.Fatalf("field %s has kind %s, which this test cannot flip; extend it", name, f.Kind())
			}
			err := base.Check(run)
			if err == nil || !strings.Contains(err.Error(), name+"=") {
				t.Errorf("Check with %s flipped = %v, want a diagnostic naming %s", name, err, name)
			}
			if err != nil && strings.ContainsRune(err.Error(), '\n') {
				t.Errorf("diagnostic is not a single line: %q", err)
			}
		})
	}
	if err := base.Check(testMeta()); err != nil {
		t.Errorf("Check rejected an identical campaign: %v", err)
	}
	// gob does not distinguish a nil slice from an empty one.
	noBugs, empty := testMeta(), testMeta()
	noBugs.SeedBugs, empty.SeedBugs = nil, []string{}
	if err := noBugs.Check(empty); err != nil {
		t.Errorf("Check told a nil SeedBugs from an empty one: %v", err)
	}
}

// TestReopenAppendsAfterTornTail: reopening a journal after a torn
// tail returns the intact records with a diagnostic and truncates the
// tear away, so new frames follow the last intact record.
func TestReopenAppendsAfterTornTail(t *testing.T) {
	recs := testRecords(3)
	dir := writeJournal(t, recs)
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Records) != 2 || len(j.Diagnostics) == 0 {
		t.Fatalf("reopened torn journal with %d records and diagnostics %v, want 2 and a diagnostic",
			len(j.Records), j.Diagnostics)
	}
	extra := Record{LeafID: 9, LeafICount: 999, Injected: true}
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Diagnostics) != 0 {
		t.Fatalf("journal still damaged after reopen+append: %v", st.Diagnostics)
	}
	want := append(recs[:2], extra)
	if len(st.Records) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(st.Records), len(want))
	}
	for i := range want {
		if st.Records[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, st.Records[i], want[i])
		}
	}
}

// TestLoadRefusesOtherVersion: a journal of any other format version is
// refused with an error naming both versions, never folded. Formats up
// to 3 wrote the meta file as a bare gob stream: a bare Meta (formats 1
// and 2) or a {Version, Meta} pair (format 3); later formats seal it.
func TestLoadRefusesOtherVersion(t *testing.T) {
	unsealed := func(v any) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(v); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	sealed := func(version uint32) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			meta := testMeta()
			if err := writeSealed(path, journalMagic, version, &meta); err != nil {
				t.Fatal(err)
			}
		}
	}
	type format3 struct {
		Version int
		Meta    Meta
	}
	for name, tc := range map[string]struct {
		write func(t *testing.T, path string)
		want  string
	}{
		"legacy":   {unsealed(testMeta()), "version 3 or earlier"},
		"format-3": {unsealed(format3{Version: 3, Meta: testMeta()}), "version 3 or earlier"},
		"older":    {sealed(Version - 1), fmt.Sprintf("version %d,", Version-1)},
		"newer":    {sealed(Version + 1), fmt.Sprintf("version %d,", Version+1)},
	} {
		t.Run(name, func(t *testing.T) {
			dir := writeJournal(t, testRecords(2))
			tc.write(t, filepath.Join(dir, MetaFile))
			st, err := Load(dir)
			if err == nil {
				t.Fatalf("Load accepted a journal of another format version: %d records", len(st.Records))
			}
			ours := fmt.Sprintf("reads only version %d", Version)
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), ours) {
				t.Fatalf("refusal %q names neither %q nor %q", err, tc.want, ours)
			}
		})
	}
}

func TestLoadMissingMeta(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("Load accepted a directory without a campaign journal")
	}
}

func TestLoadCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, MetaFile), []byte("\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a corrupt meta file")
	}
}
