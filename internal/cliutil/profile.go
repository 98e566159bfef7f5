package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles backs the commands' -cpuprofile and -memprofile flags. It
// starts a CPU profile into cpuPath now; the returned stop ends it and
// writes the allocation profile (every allocation since the program
// started, readable with go tool pprof) into memPath. An empty path skips
// that profile. Call stop once, after the work being profiled.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		runtime.GC() // settle the in-use figures the profile also carries
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memory profile: %w", err)
		}
		return f.Close()
	}, nil
}
