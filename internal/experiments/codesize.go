package experiments

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
)

// codeSize measures a codebase for the Fig 5 x-axis. The paper counts
// "lines ending in a semicolon for the target and their PM
// dependencies"; the Go analogue counts the non-empty, non-comment,
// non-test source lines of dirs, relative to the module root.
func codeSize(dirs []string) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, d := range dirs {
		n, err := countDir(filepath.Join(root, d))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// countDir counts non-empty, non-comment, non-test Go source lines.
func countDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			total++
		}
		f.Close()
	}
	return total, nil
}
