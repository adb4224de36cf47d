package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mumak/internal/campaign"
	"mumak/internal/fpt"
	"mumak/internal/stack"
)

// buildCLI compiles this command into a temporary directory, so tests can
// drive it end to end exactly as a user does.
func buildCLI(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "mumak")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs the built command and returns its combined output and exit
// code.
func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running %s: %v", bin, err)
	return "", 0
}

// TestVerdictCacheRefusesOtherRecovery: Level Hashing's seeded
// top-slot bug is only visible to the full recovery procedure. A
// verdict-cache file written by a run without it must be refused by a
// run with it — folding its "consistent" verdicts would hide both bugs.
func TestVerdictCacheRefusesOtherRecovery(t *testing.T) {
	bin := buildCLI(t)
	vc := filepath.Join(t.TempDir(), "verdicts.bin")
	args := []string{"-target", "levelhash", "-seed-bugs", "levelhash/c01-top-slot-count-order",
		"-ops", "300", "-workers", "1"}

	if out, code := runCLI(t, bin, append(args, "-with-recovery=true")...); code != 1 ||
		!strings.Contains(out, "2 unique bug(s)") {
		t.Fatalf("cold run with recovery: exit %d, want 1 with 2 bugs\n%s", code, out)
	}
	if out, code := runCLI(t, bin, append(args, "-with-recovery=false", "-verdict-cache-file", vc)...); code != 0 {
		t.Fatalf("run without recovery: exit %d, want 0 (the bug is invisible to it)\n%s", code, out)
	}
	out, code := runCLI(t, bin, append(args, "-with-recovery=true", "-verdict-cache-file", vc)...)
	if code != 2 || !strings.Contains(out, "WithRecovery") {
		t.Fatalf("run with recovery reusing the other run's verdicts: exit %d, want 2 naming WithRecovery\n%s", code, out)
	}
}

// TestProfilesLeaveReportUnchanged: the profile flags write their files
// on every exit path, here a run that finds bugs and exits 1, and change
// neither the report nor the exit code.
func TestProfilesLeaveReportUnchanged(t *testing.T) {
	bin := buildCLI(t)
	args := []string{"-target", "btree", "-spt", "-seed-bugs", "btree/count-outside-tx",
		"-ops", "300", "-workers", "1", "-json"}
	plain, plainCode := runCLI(t, bin, args...)
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "trace.out")}
	profiled, code := runCLI(t, bin, append(args,
		"-cpuprofile", files[0], "-memprofile", files[1], "-trace", files[2])...)
	if plainCode != 1 || code != plainCode {
		t.Fatalf("exit %d with profiles, %d without; want 1 (bugs found) for both", code, plainCode)
	}
	if profiled != plain {
		t.Fatalf("report changed under the profile flags:\n%s\nwithout:\n%s", profiled, plain)
	}
	for _, f := range files {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", f, err)
		}
	}
}

// TestArtifactsTreeReadsBack: -artifacts saves the failure point tree
// with the campaign's progress. On a completed run it reads back with
// every failure point visited, as many as the summary reports.
func TestArtifactsTreeReadsBack(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	out, code := runCLI(t, bin, "-target", "btree", "-spt", "-ops", "300", "-workers", "1",
		"-exit-zero", "-artifacts", dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	m := regexp.MustCompile(`(?m)^failure points: (\d+) `).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("summary lacks the failure points line:\n%s", out)
	}
	want, _ := strconv.Atoi(m[1])
	f, err := os.Open(filepath.Join(dir, "failure-point-tree.gob"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tree, visited, err := fpt.ReadTree(f, stack.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != want || visited != want {
		t.Fatalf("artifact holds %d failure points, %d visited; the summary reports %d, all consumed",
			tree.Len(), visited, want)
	}
}

// TestResumeRefusesOtherJournalVersion: a journal whose meta file holds
// a bare Meta, as journals did before the format version moved there,
// is refused before any analysis runs.
func TestResumeRefusesOtherJournalVersion(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(campaign.Meta{Target: "btree", Ops: 300}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, campaign.MetaFile), meta.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, bin, "-target", "btree", "-ops", "300", "-journal", dir, "-resume")
	if code != 2 || !strings.Contains(out, "format version") {
		t.Fatalf("resume of an old-format journal: exit %d, want 2 naming the format version\n%s", code, out)
	}
}
