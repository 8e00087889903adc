// Command flpbench regenerates the E1–E11 and E13 tables in
// EXPERIMENTS.md: one experiment per artifact of the paper (Lemmas 1-3,
// Theorems 1-2, the commit window, and the contrast/escape systems the
// paper cites). E12 and E14–E18 are retired and their numbers not
// reused. Engine performance is measured by `go run ./bench`, not here.
//
// Usage:
//
//	flpbench                # the full suite at default scale
//	flpbench -experiment E4 # one experiment
//	flpbench -scale 3       # multiply every trial and seed count by 3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/flpsim/flp/internal/experiments"
)

func main() {
	var (
		id         = flag.String("experiment", "all", "experiment id (E1..E11, E13) or 'all'")
		scale      = flag.Int("scale", 1, "multiply every trial and seed count (at least 1)")
		seed       = flag.Int64("seed", 1, "seed of the sampled runs in E1, E5 and E7; no other experiment reads it")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	defer profiles(*cpuprofile, *memprofile)()

	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "flpbench: -scale %d: must be at least 1\n", *scale)
		os.Exit(1)
	}
	if *id != "all" {
		tab, err := experiments.RunByID(*id, *scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flpbench: %v\n", err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
		return
	}
	start := time.Now()
	for _, r := range experiments.Suite(*scale, *seed) {
		t0 := time.Now()
		tab, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "flpbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("  (%s in %v)\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("suite complete in %v\n", time.Since(start).Round(time.Millisecond))
}

// profiles starts CPU profiling (when requested) and returns the function
// that stops it and writes the heap profile — deferred by main, so error
// paths that os.Exit skip the writes by design.
func profiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flpbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "flpbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flpbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // materialize a settled heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "flpbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
