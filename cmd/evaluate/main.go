// Command evaluate regenerates the paper's evaluation (§6). It writes
// every figure and table file that experiments.Files lists to results/
// at the module root, each at its one fixed scale, or only the files it
// is given by name:
//
//	go run ./cmd/evaluate                       # every file
//	go run ./cmd/evaluate fig3.txt newbugs.txt  # only these two
//
// It takes no flags.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mumak/internal/experiments"
)

func main() {
	files := experiments.Files
	if names := os.Args[1:]; len(names) > 0 {
		files = nil
		for _, name := range names {
			i := slices.IndexFunc(experiments.Files, func(f experiments.File) bool { return f.Name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "evaluate: no results file %q\n", name)
				os.Exit(2)
			}
			files = append(files, experiments.Files[i])
		}
	}
	dir, err := experiments.ResultsDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate: module root:", err)
		os.Exit(1)
	}
	for _, f := range files {
		start := time.Now()
		out, err := f.Generate()
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, f.Name), []byte(out), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "evaluate: %s: %v\n", f.Name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote results/%s in %v\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
}
