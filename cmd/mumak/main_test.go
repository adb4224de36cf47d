package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
