package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func validValues() flagValues {
	return flagValues{
		ops: 1000, workers: 4, poolMB: 64,
		ckptInterval: 2000, budget: time.Minute, classing: true,
	}
}

func TestValidateFlagsAcceptsDefaults(t *testing.T) {
	if err := validateFlags(validValues()); err != nil {
		t.Fatalf("default-shaped flags rejected: %v", err)
	}
	// Zero disables checkpoints rather than erroring.
	v := validValues()
	v.ckptInterval, v.budget = 0, 0
	if err := validateFlags(v); err != nil {
		t.Fatalf("zero interval/budget rejected: %v", err)
	}
}

func TestValidateFlagsRejections(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*flagValues)
		want   string
	}{
		{"ops", func(v *flagValues) { v.ops = 0 }, "-ops"},
		{"workers", func(v *flagValues) { v.workers = 0 }, "-workers"},
		{"workers-negative", func(v *flagValues) { v.workers = -3 }, "-workers"},
		{"pool", func(v *flagValues) { v.poolMB = 0 }, "-pool-mb"},
		{"checkpoint-interval", func(v *flagValues) { v.ckptInterval = -9 }, "-checkpoint-interval"},
		{"budget", func(v *flagValues) { v.budget = -time.Second }, "-budget"},
		{"resume-without-journal", func(v *flagValues) { v.resume = true }, "-journal"},
		{"verdict-cache-without-classing", func(v *flagValues) {
			v.verdictCache = "verdicts.bin"
			v.classing = false
		}, "-verdict-cache-file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := validValues()
			tc.mutate(&v)
			err := validateFlags(v)
			if err == nil {
				t.Fatalf("%+v accepted", v)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
			if strings.ContainsRune(err.Error(), '\n') {
				t.Fatalf("error is not a single line: %q", err)
			}
		})
	}
}

func TestValidateFlagsArtifactsProbe(t *testing.T) {
	v := validValues()
	v.artifacts = filepath.Join(t.TempDir(), "out")
	if err := validateFlags(v); err != nil {
		t.Fatalf("creatable artifacts dir rejected: %v", err)
	}
	if fi, err := os.Stat(v.artifacts); err != nil || !fi.IsDir() {
		t.Fatalf("probe did not create the directory: %v", err)
	}
	if entries, _ := os.ReadDir(v.artifacts); len(entries) != 0 {
		t.Fatalf("probe left %d files behind", len(entries))
	}

	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	locked := filepath.Join(t.TempDir(), "locked")
	if err := os.Mkdir(locked, 0o555); err != nil {
		t.Fatal(err)
	}
	v.artifacts = filepath.Join(locked, "out")
	if err := validateFlags(v); err == nil {
		t.Fatal("unwritable artifacts dir accepted")
	}
}

func TestValidateFlagsProfilePaths(t *testing.T) {
	dir := t.TempDir()
	existing := filepath.Join(dir, "existing.prof")
	if err := os.WriteFile(existing, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	v := validValues()
	v.cpuProfile = filepath.Join(dir, "cpu.prof")
	v.memProfile = existing
	v.execTrace = filepath.Join(dir, "trace.out")
	if err := validateFlags(v); err != nil {
		t.Fatalf("writable profile paths rejected: %v", err)
	}
	if _, err := os.Stat(v.cpuProfile); !os.IsNotExist(err) {
		t.Fatalf("probe left %s behind: %v", v.cpuProfile, err)
	}
	if b, err := os.ReadFile(existing); err != nil || string(b) != "keep" {
		t.Fatalf("probe changed an existing file: %q, %v", b, err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*flagValues, string)
		want   string
	}{
		{"cpuprofile", func(v *flagValues, p string) { v.cpuProfile = p }, "-cpuprofile"},
		{"memprofile", func(v *flagValues, p string) { v.memProfile = p }, "-memprofile"},
		{"trace", func(v *flagValues, p string) { v.execTrace = p }, "-trace"},
	} {
		// A directory and a file in a missing directory are unwritable
		// even for root.
		for _, path := range []string{dir, filepath.Join(dir, "missing", "out")} {
			v := validValues()
			tc.mutate(&v, path)
			err := validateFlags(v)
			if err == nil {
				t.Fatalf("%s %s accepted", tc.want, path)
			}
			if !strings.Contains(err.Error(), tc.want) || strings.ContainsRune(err.Error(), '\n') {
				t.Fatalf("error %q is not one line naming %s", err, tc.want)
			}
		}
	}
}
