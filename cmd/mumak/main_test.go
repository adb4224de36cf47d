package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mumak/internal/campaign"
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

// TestSummaryListsEachQuarantineOnce: the text summary names every
// quarantined failure point exactly once, in the report's quarantine
// section, and prints that section's headline once.
func TestSummaryListsEachQuarantineOnce(t *testing.T) {
	bin := buildCLI(t)
	args := []string{"-target", "misbehave-replay-broken", "-stack-mode", "-workers", "1", "-exit-zero"}
	js, code := runCLI(t, bin, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, js)
	}
	var rep struct {
		Quarantined []struct {
			FailurePoint int    `json:"failure_point"`
			ICount       uint64 `json:"instruction"`
		} `json:"quarantined_leaves"`
	}
	if err := json.Unmarshal([]byte(js), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) == 0 {
		t.Fatalf("the broken-replay fixture quarantined nothing:\n%s", js)
	}
	summary, code := runCLI(t, bin, args...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, summary)
	}
	if n := strings.Count(summary, "quarantined failure points:"); n != 1 {
		t.Errorf("the quarantine headline is printed %d times, want once:\n%s", n, summary)
	}
	for _, q := range rep.Quarantined {
		name := fmt.Sprintf("failure point #%d (instruction %d)", q.FailurePoint, q.ICount)
		if n := strings.Count(summary, name); n != 1 {
			t.Errorf("%s is printed %d times, want once:\n%s", name, n, summary)
		}
	}
}

// TestResumeRefusesOtherJournalVersion: a journal whose meta file holds
// a bare Meta gob, as journals of format 3 or earlier did before the
// meta file was sealed, is refused before any analysis runs.
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
	out, code := runCLI(t, bin, "-target", "btree", "-ops", "300", "-journal", dir)
	if code != 2 || !strings.Contains(out, "format version") {
		t.Fatalf("resume of an old-format journal: exit %d, want 2 naming the format version\n%s", code, out)
	}
}

// TestJournalResumesOnlyItsOwnCampaign: rerunning the command that
// wrote a journal resumes it (here a completed one: every verdict is
// folded, none replayed, and the report is unchanged), while a run of
// another campaign is refused naming the field that differs.
func TestJournalResumesOnlyItsOwnCampaign(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	args := []string{"-target", "btree", "-spt", "-seed-bugs", "btree/count-outside-tx",
		"-ops", "300", "-workers", "1", "-exit-zero", "-journal", dir}
	first, code := runCLI(t, bin, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("journaled run: exit %d\n%s", code, first)
	}
	again, code := runCLI(t, bin, append(args, "-json")...)
	if code != 0 || again != first {
		t.Fatalf("rerun over the journal: exit %d, report\n%s\nwant exit 0 and\n%s", code, again, first)
	}
	summary, _ := runCLI(t, bin, args...)
	if !regexp.MustCompile(`journal: 0 verdict\(s\) appended, [1-9]\d* verdict\(s\) restored on resume`).MatchString(summary) {
		t.Fatalf("rerun of a completed campaign did not fold every verdict:\n%s", summary)
	}
	out, code := runCLI(t, bin, append(args, "-ops", "200")...)
	if code != 2 || !strings.Contains(out, "Ops=300") {
		t.Fatalf("run of another campaign over the journal: exit %d, want 2 naming Ops\n%s", code, out)
	}
}

// identityFlags are the flags campaignMeta pins: a journal or
// verdict-cache file recorded under one value is refused under another.
// Each maps to a base value and an alternative one.
var identityFlags = map[string][2]string{
	"target":            {"btree", "rbtree"},
	"ops":               {"20", "21"},
	"seed":              {"42", "43"},
	"spt":               {"false", "true"},
	"pmdk":              {"1.6", "1.8"},
	"eadr":              {"false", "true"},
	"store-granularity": {"false", "true"},
	"stack-mode":        {"false", "true"},
	"seed-bugs":         {"", "btree/count-outside-tx"},
	"montage-buggy":     {"false", "true"},
	"with-recovery":     {"true", "false"},
	"pool-mb":           {"64", "32"},
	"hang-budget":       {"0", "1000000"},
	"recovery-timeout":  {"0", "5s"},
}

// neutralFlags change neither the failure point tree nor a verdict, so
// a journal or verdict-cache file recorded under one value folds into a
// run under another. Each maps to the reason.
var neutralFlags = map[string]string{
	"list":               "lists the targets and analyses nothing",
	"warnings":           "adds trace-analysis warnings to the report, which no verdict reads",
	"json":               "selects the report format",
	"print-tree":         "prints the tree the run built",
	"exit-zero":          "changes only the exit status",
	"workers":            "reports are byte-identical for any worker count",
	"budget":             "cuts a campaign short, and the journal resumes it",
	"classing":           "classed and unclassed campaigns give byte-identical reports, and journals fold across it",
	"journal":            "names where verdicts are recorded",
	"verdict-cache-file": "names where verdicts are cached",
	"cpuprofile":         "profiles leave the report unchanged",
	"memprofile":         "profiles leave the report unchanged",
	"trace":              "profiles leave the report unchanged",
}

// TestEveryFlagIsIdentityOrResultNeutral: every flag mumak -h prints is
// declared either part of the campaign identity or result-neutral, and
// each identity flag really changes the identity a journal records.
func TestEveryFlagIsIdentityOrResultNeutral(t *testing.T) {
	bin := buildCLI(t)
	usage, code := runCLI(t, bin, "-h")
	if code != 0 {
		t.Fatalf("mumak -h: exit %d\n%s", code, usage)
	}
	printed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(usage, -1) {
		printed[m[1]] = true
	}
	declared := map[string]int{}
	for name := range identityFlags {
		declared[name]++
	}
	for name := range neutralFlags {
		declared[name]++
	}
	for name := range printed {
		if declared[name] != 1 {
			t.Errorf("flag -%s must be declared exactly once, as an identity flag or as result-neutral", name)
		}
	}
	for name := range declared {
		if !printed[name] {
			t.Errorf("declared flag -%s is not printed by mumak -h", name)
		}
	}
	for name, values := range identityFlags {
		t.Run(name, func(t *testing.T) {
			var metas [2]campaign.Meta
			for i, v := range values {
				dir := t.TempDir()
				args := []string{"-target", "btree", "-ops", "20", "-budget", "2s", "-workers", "1",
					"-exit-zero", "-journal", dir, "-" + name + "=" + v}
				if out, code := runCLI(t, bin, args...); code != 0 {
					t.Fatalf("mumak %s: exit %d\n%s", strings.Join(args, " "), code, out)
				}
				st, err := campaign.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				metas[i] = st.Meta
			}
			if metas[0].Check(metas[1]) == nil {
				t.Errorf("-%s=%s and -%s=%s record the same campaign identity %+v",
					name, values[0], name, values[1], metas[0])
			}
		})
	}
}
