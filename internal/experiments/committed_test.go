package experiments_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mumak/internal/experiments"
)

// TestCommittedResultsMatchCode regenerates every file of
// experiments.Files at the file's own scale and compares it with the
// committed file under results/, with every time masked, so a committed
// count cannot drift from the code. Fig 4 is left out: which of its runs
// finish within budget depends on host speed, and regenerating it takes
// minutes.
func TestCommittedResultsMatchCode(t *testing.T) {
	dir, err := experiments.ResultsDir()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range experiments.Files {
		if f.HostDependent {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			committed, err := os.ReadFile(filepath.Join(dir, f.Name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Generate()
			if err != nil {
				t.Fatal(err)
			}
			want, have := maskTimes(string(committed)), maskTimes(got)
			for i := 0; i < max(len(want), len(have)); i++ {
				var w, h string
				if i < len(want) {
					w = want[i]
				}
				if i < len(have) {
					h = have[i]
				}
				if w != h {
					t.Fatalf("line %d of results/%s reads\n\t%q\nwhere the code prints\n\t%q\nregenerate it with go run ./cmd/evaluate %s",
						i+1, f.Name, w, h, f.Name)
				}
			}
		})
	}
}

// timeField matches a time.Duration as a results file prints it,
// parenthesised or not: 946ms, 1.929s, 1m0.002s.
var timeField = regexp.MustCompile(`^\(?([0-9.]+(h|m|s|ms|µs|ns))+\)?$`)

// maskTimes splits a results file into lines of single-space-separated
// fields, each time field replaced by "<time>", so that neither a time
// nor the column padding it moves is compared.
func maskTimes(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, line := range lines {
		fields := strings.Fields(line)
		for j, f := range fields {
			if timeField.MatchString(f) {
				fields[j] = "<time>"
			}
		}
		lines[i] = strings.Join(fields, " ")
	}
	return lines
}
