package campaign

import (
	"fmt"
	"os"
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
// The file is a sealed file (magic MUMAKVDC), and its payload embeds
// the campaign Meta, so a cache recorded under different parameters is
// refused with the same field-by-field diagnostic a mismatched journal
// gets.

var verdictMagic = [8]byte{'M', 'U', 'M', 'A', 'K', 'V', 'D', 'C'}

// VerdictCacheVersion is the cache-file format version.
const VerdictCacheVersion = 2

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
	return writeSealed(path, verdictMagic, VerdictCacheVersion, &verdictCacheFile{Meta: meta, Entries: entries})
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
	var vf verdictCacheFile
	if err := unseal(data, verdictMagic, VerdictCacheVersion, &vf); err != nil {
		return nil, fmt.Errorf("campaign: %s is not a usable verdict cache file: %w", path, err)
	}
	if err := vf.Meta.Check(run); err != nil {
		return nil, fmt.Errorf("campaign: verdict cache %s: %v", path, err)
	}
	return vf.Entries, nil
}
