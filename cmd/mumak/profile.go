// Profiles on request: -cpuprofile, -memprofile and -trace write Go
// runtime profiles of the run next to, never into, the report.
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// stopProfiles finishes the profiles startProfiles began. Every exit
// path after the analysis starts runs it (exit), so a run that finds
// bugs or fails still leaves complete profiles.
var stopProfiles = func() {}

// exit stops the profiles and ends the process with code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles starts the CPU profile and the execution trace, and
// sets stopProfiles to finish them and write the heap profile. An empty
// path skips that profile.
func startProfiles(cpu, mem, exec string) error {
	var stops []func() error
	stopProfiles = func() {
		for _, stop := range stops {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "mumak: profile:", err)
			}
		}
		stops = nil
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if exec != "" {
		f, err := os.Create(exec)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return err
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() error {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			// Collect first, so the profile's in-use figures are current.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	return nil
}
