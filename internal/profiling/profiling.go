// Package profiling is the shared pprof plumbing of the CLIs: it arms
// the optional -cpuprofile/-memprofile/-blockprofile/-mutexprofile
// outputs so performance PRs are driven by profiles instead of
// guesswork.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config selects which profiles to record. Empty paths disable the
// corresponding output.
type Config struct {
	CPU string // pprof CPU profile, sampled while running
	Mem string // heap profile, written at stop after a GC
	// Block and Mutex arm the runtime's contention profilers for the
	// whole run (SetBlockProfileRate(1) / SetMutexProfileFraction(1))
	// and write the accumulated profile at stop. Both add overhead on
	// every contended operation; use them to diagnose, not to benchmark.
	Block string
	Mutex string
}

// enabled reports whether any profile output is armed.
func (c Config) enabled() bool {
	return c.CPU != "" || c.Mem != "" || c.Block != "" || c.Mutex != ""
}

// Start arms the selected pprof outputs: the CPU profile (and the block
// and mutex contention profilers, when requested) run until the returned
// stop function is called, which also writes the heap profile (after a
// GC, so it reflects live steady-state memory). prefix labels the
// messages with the calling command's name. Error exits that bypass the
// deferred stop simply lose the profiles — they are a success-path
// diagnostic.
func Start(prefix string, cfg Config) (stop func(), err error) {
	if !cfg.enabled() {
		return func() {}, nil
	}
	var cpuFile *os.File
	if cfg.CPU != "" {
		f, err := os.Create(cfg.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if cfg.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if cfg.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	// All messages go to stderr: the CLIs reserve stdout for
	// machine-readable output (-print-spec, -example, JSONL).
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "%s: wrote CPU profile %s\n", prefix, cfg.CPU)
		}
		if cfg.Block != "" {
			writeLookup(prefix, "block", cfg.Block)
			runtime.SetBlockProfileRate(0)
		}
		if cfg.Mutex != "" {
			writeLookup(prefix, "mutex", cfg.Mutex)
			runtime.SetMutexProfileFraction(0)
		}
		if cfg.Mem != "" {
			f, err := os.Create(cfg.Mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prefix, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prefix, err)
				return
			}
			fmt.Fprintf(os.Stderr, "%s: wrote heap profile %s\n", prefix, cfg.Mem)
		}
	}, nil
}

// writeLookup dumps one of the runtime's named profiles to path.
func writeLookup(prefix, name, path string) {
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "%s: %sprofile: no such profile\n", prefix, name)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %sprofile: %v\n", prefix, name, err)
		return
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %sprofile: %v\n", prefix, name, err)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %s profile %s\n", prefix, name, path)
}
