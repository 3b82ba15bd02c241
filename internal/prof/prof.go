// Package prof wires the standard pprof profilers into the command-line
// tools, so performance work can measure the real workloads (EXPERIMENTS.md
// drivers) instead of guessing from micro-benchmarks.
package prof

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles names the output files for each supported profile; empty paths
// disable that profile.
type Profiles struct {
	// CPU receives a CPU profile covering StartAll..stop.
	CPU string
	// Mem receives a heap profile written at stop (after a GC, so it
	// reflects live data).
	Mem string
	// Block receives a goroutine-blocking profile (channel waits, barrier
	// stalls) sampled at full rate between StartAll and stop.
	Block string
	// Mutex receives a mutex-contention profile sampled at full rate
	// between StartAll and stop.
	Mutex string
}

// StartAll enables every profile with a non-empty path and returns the stop
// function that writes them out; all paths may be empty, making it a no-op.
// It returns an error, and starts nothing, when the CPU profile cannot be
// created or started. Callers must invoke stop before exiting: it writes
// every remaining profile even after one fails and returns the first error,
// so a profile that did not reach the disk in full is never reported as
// written. Block and mutex profiling sample at full rate while active
// (runtime.SetBlockProfileRate(1) / SetMutexProfileFraction(1)) —
// measurable overhead, acceptable for the diagnostic runs these flags exist
// for — and are switched off again by stop.
func StartAll(p Profiles) (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: cpu profile: %w", err)
		}
		cpuFile = f
	}
	if p.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if p.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		var first error
		keep := func(err error) {
			if first == nil && err != nil {
				first = fmt.Errorf("prof: %w", err)
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			keep(cpuFile.Close())
		}
		if p.Mem != "" {
			runtime.GC()
			keep(writeFile(p.Mem, pprof.WriteHeapProfile))
		}
		if p.Block != "" {
			keep(writeFile(p.Block, lookup("block")))
			runtime.SetBlockProfileRate(0)
		}
		if p.Mutex != "" {
			keep(writeFile(p.Mutex, lookup("mutex")))
			runtime.SetMutexProfileFraction(0)
		}
		return first
	}, nil
}

// lookup returns a writer for one of the runtime's named profiles.
func lookup(name string) func(io.Writer) error {
	return func(w io.Writer) error { return pprof.Lookup(name).WriteTo(w, 0) }
}

// writeFile creates path, fills it with write and closes it, returning the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
