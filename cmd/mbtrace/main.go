// Command mbtrace records a stochastic workload into the plain-text
// trace format, so runs can be replayed exactly (mbsim -trace) or edited
// by hand.
//
// Usage:
//
//	mbtrace -workload hier -n 16 -cycles 1000 -seed 3 > trace.txt
//	mbtrace -workload zipf -s 1.2 -n 8 -m 8 -cycles 500
package main

import (
	"flag"
	"fmt"
	"os"

	"multibus/internal/scenario"
	"multibus/internal/sim"
	"multibus/internal/workload"
)

func main() {
	var (
		n      = flag.Int("n", 16, "number of processors")
		m      = flag.Int("m", 0, "number of memory modules (default n)")
		r      = flag.Float64("r", 1.0, "per-cycle request probability")
		wl     = flag.String("workload", "hier", "workload: hier, unif, hotspot, zipf")
		s      = flag.Float64("s", 1.0, "Zipf exponent for -workload zipf")
		cycles = flag.Int("cycles", 1000, "cycles to record")
		seed   = flag.Int64("seed", 1, "RNG seed")
	)
	flag.Parse()
	if *m == 0 {
		*m = *n
	}
	if err := run(os.Stdout, *wl, *n, *m, *r, *s, *cycles, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "mbtrace:", err)
		os.Exit(1)
	}
}

func run(w *os.File, wl string, n, m int, r, s float64, cycles int, seed int64) error {
	var gen workload.Generator
	var err error
	if wl == "zipf" {
		gen, err = workload.NewZipf(n, m, r, s)
	} else {
		gen, err = scenario.Model{Kind: wl}.BuildWorkload(n, m, r)
	}
	if err != nil {
		return err
	}
	// sim.NewSeededRand is the repo's one seed-derivation path: the same
	// seed names the same PCG-DXSM stream here, in the simulator, and in
	// the façade's RecordWorkload.
	recorded, err := workload.Record(gen, cycles, sim.NewSeededRand(seed))
	if err != nil {
		return err
	}
	return workload.WriteTrace(w, n, m, recorded)
}
