// Package campaign owns every file Mumak writes: the crash-safe
// campaign journal, the cross-run verdict cache and the failure point
// tree artifact.
//
// Every file written whole — the tree artifact, the journal's meta file
// and the verdict-cache file — is a sealed file (sealed.go): a header
// naming its kind and format version, a checksummed gob payload, and
// one atomic write (temp file, fsync, rename, directory fsync). A
// reader sees the old complete file or the new one, and rejects a
// damaged or foreign file with a one-line diagnostic.
//
// The journal makes fault-injection campaigns crash-safe: it is an
// append-only, checksummed, fsync'd log of per-leaf replay verdicts, so
// a campaign killed at any byte — SIGKILL, OOM, reboot, budget expiry —
// resumes from a loadable prefix instead of starting over. The
// durability argument mirrors the tool's own subject matter:
//
//   - Every record is length-prefixed and CRC-checksummed; each append
//     is fsync'd before the campaign merge loop moves on. A crash
//     mid-append leaves a torn tail that the loader detects and
//     discards — everything before it is intact, and a lost tail
//     record only costs re-replaying that one leaf.
//   - The campaign identity (Meta: every setting that changes the
//     failure point tree or a verdict) is written once at creation, as
//     a sealed meta file whose header carries the format Version.
//     Resume refuses a journal of another format version, and one
//     recorded under different parameters with a one-line diagnostic
//     naming the first differing field.
//
// The journal is the campaign's only progress state. The campaign
// merge loop consumes leaves strictly in first-occurrence order, so
// progress is always a prefix of the deterministic campaign and the
// journal records exactly that prefix. A resumed run re-executes the
// (deterministic) instrumented phase, folds the journaled verdicts
// through the same merge step, and replays only the remainder — the
// final report is byte-identical to an uninterrupted run.
package campaign

import (
	"fmt"
	"reflect"
	"time"

	"mumak/internal/oracle"
)

// Version is the journal format version, written into the header of
// the sealed meta file. Load refuses any other version: records of
// another format cannot be folded safely.
const Version = 4

// Meta identifies the campaign a journal or verdict-cache file belongs
// to: every setting that changes the failure point tree or the verdict
// the recovery oracle reaches on a crash image. Folding verdicts into a
// campaign with a different identity would silently corrupt its report,
// so Check compares every field.
type Meta struct {
	// Target is the application-under-test registry name.
	Target string
	// Ops and Seed pin the deterministic workload.
	Ops  int
	Seed int64
	// StackMode, StoreGranularity and EADR pin the injection mode: they
	// change the failure-point tree or the analysis domain.
	StackMode        bool
	StoreGranularity bool
	EADR             bool
	// WithRecovery, PMDK, SPT, SeedBugs (sorted), MontageBuggy and
	// PoolMB pin the target build: its recovery procedure, its
	// transaction shape, its planted bugs and its pool.
	WithRecovery bool
	PMDK         string
	SPT          bool
	SeedBugs     []string
	MontageBuggy bool
	PoolMB       int
	// HangBudget and RecoveryTimeout are the watchdog bounds as
	// configured (0 = the default); Hung verdicts render them.
	HangBudget      uint64
	RecoveryTimeout time.Duration
}

// Check reports a one-line diagnostic naming the first field in which
// the recorded identity m differs from the campaign about to use it.
// The fields are walked by reflection, so a field added to Meta is
// checked without touching Check; nil and empty slices compare equal,
// as gob does not tell them apart.
func (m Meta) Check(run Meta) error {
	rec, cur := reflect.ValueOf(m), reflect.ValueOf(run)
	for i := 0; i < rec.NumField(); i++ {
		a, b := rec.Field(i), cur.Field(i)
		if a.Kind() == reflect.Slice && a.Len() == 0 && b.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Errorf("campaign identity differs: recorded with %s=%v, this run has %s=%v",
				rec.Type().Field(i).Name, a, rec.Type().Field(i).Name, b)
		}
	}
	return nil
}

// Source records how a consumed failure point's verdict was obtained.
type Source uint8

// Verdict sources.
const (
	// Replayed: the failure point was replayed and its crash image
	// judged by the recovery oracle.
	Replayed Source = iota
	// Inherited: a crash-image class member took the verdict its class
	// already has, without replaying.
	Inherited
	// Cached: a class representative took the verdict a verdict-cache
	// file already held for its crash image, without replaying.
	Cached
)

// Judgement is one crash image's recovery verdict in the form every
// verdict-reuse path shares — the campaign's in-memory verdict memo,
// journal records and verdict-cache files: the oracle verdict plus the
// finding detail rendered from it (empty when recovery accepted the
// image). A finding rebuilt from it renders byte-identically to the
// one the live check produced.
type Judgement struct {
	Verdict oracle.Verdict
	Detail  string
}

// Record is one durable per-leaf verdict: everything the deterministic
// merge step needs to fold the leaf's outcome into the report and the
// campaign counters without re-executing the replay. Leaves are keyed
// by their first-occurrence instruction counter — stable across
// processes for a deterministic target, unlike program counters.
type Record struct {
	// LeafID and LeafICount identify the failure point; LeafICount is
	// the cross-process key (the rebuilt tree's leaf with the same
	// first-occurrence counter), LeafID is diagnostic.
	LeafID     int
	LeafICount uint64
	// Events is the number of engine instruction events the replay
	// spent (all attempts); Retries the extra attempts after transient
	// skips.
	Events  uint64
	Retries int
	// Source is how the verdict was obtained.
	Source Source
	// Injected marks a failure point whose crash image was judged
	// (replayed, inherited or cached).
	Injected bool
	// TargetPanic/TargetHang mark replays the sandbox stopped.
	TargetPanic bool
	TargetHang  bool
	// SkipReason is non-empty when the leaf was consumed without an
	// injection and quarantined after bounded retries.
	SkipReason string
	// Judgement is an injected leaf's verdict; a resumed campaign
	// re-seeds its verdict memo from it.
	Judgement
	// FindingICount is the instruction counter the leaf's finding is
	// keyed by, set on every judged or sandbox-stopped leaf (a judged
	// leaf whose image recovery accepted has no finding, and journals
	// of older builds leave it zero there). CrashDetail is the detail
	// of the target-crash finding of a replay the sandbox stopped. The
	// finding's call stack is re-derived from the matched leaf on
	// resume (program counters are process-local, the leaf's stack is
	// not).
	FindingICount uint64
	CrashDetail   string
}

// CacheEntry is one verdict-cache entry: a crash image's identity (its
// content hash and size) and its judgement.
type CacheEntry struct {
	Hash uint64
	Size int
	Judgement
}
