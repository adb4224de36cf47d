// Flag validation. Every rejection is a single actionable line on
// stderr (via fatal) instead of a Go panic or a confusing downstream
// failure: a campaign that will run for hours should refuse nonsense
// before phase 1, and an unwritable profile path should fail now, not
// after the analysis already spent its budget.
package main

import (
	"fmt"
	"os"
	"time"
)

// flagValues collects the parsed flags that validateFlags inspects,
// keeping the checks unit-testable without driving the flag package.
type flagValues struct {
	ops          int
	workers      int
	poolMB       int
	budget       time.Duration
	recTimeout   time.Duration
	verdictCache string
	classing     bool
	cpuProfile   string
	memProfile   string
	execTrace    string
}

// validateFlags rejects flag combinations that cannot produce a useful
// campaign. It returns the first problem found as a one-line error.
func validateFlags(v flagValues) error {
	switch {
	case v.ops < 1:
		return fmt.Errorf("-ops %d: the workload needs at least one operation", v.ops)
	case v.workers < 1:
		return fmt.Errorf("-workers %d: the campaign needs at least one worker (1 = serial)", v.workers)
	case v.poolMB < 1:
		return fmt.Errorf("-pool-mb %d: the simulated PM pool needs at least 1 MiB", v.poolMB)
	case v.budget < 0:
		return fmt.Errorf("-budget %s: the analysis budget cannot be negative", v.budget)
	case v.recTimeout < 0:
		return fmt.Errorf("-recovery-timeout %s: the recovery watchdog cannot be negative (0 = default)", v.recTimeout)
	case v.verdictCache != "" && !v.classing:
		return fmt.Errorf("-verdict-cache-file needs -classing: verdicts are only reused, and saved, with it on")
	}
	for _, p := range []struct{ flag, path string }{
		{"-cpuprofile", v.cpuProfile}, {"-memprofile", v.memProfile}, {"-trace", v.execTrace},
	} {
		if p.path == "" {
			continue
		}
		if err := probeWritableFile(p.path); err != nil {
			return fmt.Errorf("%s %s: %v", p.flag, p.path, err)
		}
	}
	return nil
}

// probeWritableFile verifies that path can be opened for writing, so a
// profile that could not be saved fails the run before the analysis,
// not after it. It leaves an existing file untouched and removes a
// file it had to create.
func probeWritableFile(path string) error {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("not writable: %v", err)
	}
	f.Close()
	if os.IsNotExist(statErr) {
		os.Remove(path)
	}
	return nil
}
