// Command mbsweep sweeps bandwidth over the number of buses for a set
// of connection schemes and draws the curves as an ASCII chart,
// optionally cross-checking every point with the Monte-Carlo simulator.
//
// Usage:
//
//	mbsweep -n 16
//	mbsweep -n 32 -r 0.5 -workload unif -sim
//	mbsweep -n 16 -schemes full,partial-g4 -workload dasbhuyan -q 0.7
//	mbsweep -n 16 -classsizes 2,6,8 -csv
//	mbsweep -scenario examples/scenarios/kclass-explicit.json
//	mbsweep -n 64 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"multibus/internal/asciiplot"
	"multibus/internal/cliutil"
	"multibus/internal/scenario"
	"multibus/internal/sweep"
)

type options struct {
	scenarioFile string
	n            int
	r            float64
	workload     string
	q            float64
	classSizes   string
	schemes      string
	withSim      bool
	cycles       int
	seed         int64
	workers      int
	asCSV        bool
	logger       *slog.Logger // nil disables diagnostics
}

func main() {
	var o options
	flag.StringVar(&o.scenarioFile, "scenario", "", "sweep the network/model of a scenario JSON file over the bus counts")
	flag.IntVar(&o.n, "n", 16, "number of processors (and modules)")
	flag.Float64Var(&o.r, "r", 1.0, "request rate")
	flag.StringVar(&o.workload, "workload", "hier", "request model: hier, unif, dasbhuyan")
	flag.Float64Var(&o.q, "q", 0.5, "favorite-memory fraction for -workload dasbhuyan")
	flag.StringVar(&o.classSizes, "classsizes", "", "add a kclass axis with explicit module counts, e.g. 2,6,8")
	flag.StringVar(&o.schemes, "schemes", "full,single,partial-g2,kclasses,crossbar",
		"comma-separated scheme axes (full, single, crossbar, partial-g<G>, kclasses)")
	flag.BoolVar(&o.withSim, "sim", false, "cross-check each point with the simulator")
	flag.IntVar(&o.cycles, "cycles", 20000, "simulation cycles per point with -sim")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	flag.IntVar(&o.workers, "workers", 0, "parallel point evaluations (0 = all CPUs, 1 = sequential)")
	flag.BoolVar(&o.asCSV, "csv", false, "emit CSV instead of chart + table")
	logFlags := cliutil.RegisterLogFlags(flag.CommandLine)
	profFlags := cliutil.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logFlags.Logger(os.Stderr)
	if err == nil {
		o.logger = logger
		var stopProfiles func() error
		stopProfiles, err = profFlags.Start()
		if err == nil {
			err = run(o)
			// Stop explicitly rather than defer: os.Exit below would skip
			// the CPU-profile flush and heap write.
			if stopErr := stopProfiles(); err == nil {
				err = stopErr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbsweep:", err)
		os.Exit(1)
	}
}

// axes resolves the command line (or scenario file) into the sweep's
// scheme and model axes plus the scalar grid parameters.
func axes(o *options) ([]scenario.Network, []scenario.Model, error) {
	if o.scenarioFile != "" {
		s, err := scenario.Load(o.scenarioFile)
		if err != nil {
			return nil, nil, err
		}
		o.n = s.Network.N
		o.r = s.R
		if sm := s.Sim; sm != nil {
			// A sweep point keys and runs with cycles and seed only.
			for _, k := range []struct {
				name string
				set  bool
			}{
				{"warmup", sm.Warmup != 0}, {"batches", sm.Batches != 0}, {"serviceCycles", sm.ServiceCycles != 0},
				{"resubmit", sm.Resubmit}, {"roundRobin", sm.RoundRobin},
			} {
				if k.set {
					return nil, nil, fmt.Errorf("%s: sim.%s is not a sweep knob (sweep points run with cycles and seed only)", o.scenarioFile, k.name)
				}
			}
			if sm.Cycles > 0 {
				o.cycles = sm.Cycles
			}
			if sm.Seed != 0 {
				o.seed = sm.Seed
			}
		}
		return []scenario.Network{s.Network}, []scenario.Model{s.Model}, nil
	}
	var schemes []scenario.Network
	for _, name := range strings.Split(o.schemes, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		nw, err := scenario.SweepScheme(name)
		if err != nil {
			return nil, nil, err
		}
		schemes = append(schemes, nw)
	}
	if o.classSizes != "" {
		sizes, err := cliutil.ParseInts(o.classSizes)
		if err != nil {
			return nil, nil, err
		}
		schemes = append(schemes, scenario.Network{Scheme: scenario.SchemeKClass, ClassSizes: sizes})
	}
	models := []scenario.Model{{Kind: o.workload, Q: o.q}}
	return schemes, models, nil
}

func run(o options) error {
	logger := o.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	schemes, models, err := axes(&o)
	if err != nil {
		return err
	}
	var bs []int
	for b := 1; b <= o.n; b *= 2 {
		bs = append(bs, b)
	}
	// At -log-level debug the completion summary reports points and
	// throughput.
	start := time.Now()
	res, err := sweep.Run(sweep.Spec{
		Ns:        []int{o.n},
		Bs:        bs,
		Rs:        []float64{o.r},
		Schemes:   schemes,
		Models:    models,
		WithSim:   o.withSim,
		SimCycles: o.cycles,
		Seed:      o.seed,
		Workers:   o.workers,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	logger.Debug("sweep complete",
		"points", len(res.Points),
		"skipped", len(res.Skipped),
		"elapsed", elapsed,
		"points_per_sec", float64(len(res.Points))/elapsed.Seconds())

	if o.asCSV {
		fmt.Println("scheme,model,n,b,r,x,analytic,simulated,sim_ci95")
		for _, p := range res.Points {
			fmt.Printf("%s,%s,%d,%d,%g,%.6f,%.6f", p.Scheme, p.Model, p.N, p.B, p.R, p.X, p.Bandwidth)
			if p.Simulated {
				fmt.Printf(",%.6f,%.6f", p.SimBandwidth, p.SimCI95)
			} else {
				fmt.Print(",,")
			}
			fmt.Println()
		}
		// Keep stdout machine-readable; the skip summary goes to stderr.
		reportSkipped(os.Stderr, res.Skipped)
		return nil
	}

	var series []asciiplot.Series
	for _, nw := range schemes {
		name := nw.AxisName()
		sbs, bws := sweep.Series(res.Points, name, o.n, o.r)
		if len(sbs) == 0 {
			continue
		}
		xs := make([]float64, len(sbs))
		for i, b := range sbs {
			xs[i] = float64(b)
		}
		series = append(series, asciiplot.Series{Name: name, Xs: xs, Ys: bws})
	}
	model := "?"
	if len(res.Points) > 0 {
		model = res.Points[0].Model
	}
	chart, err := (&asciiplot.Plot{
		Title:  fmt.Sprintf("Memory bandwidth vs number of buses — N=%d, r=%.2f, %s workload", o.n, o.r, model),
		XLabel: "buses B",
		YLabel: "bandwidth (requests/cycle)",
		Series: series,
	}).Render()
	if err != nil {
		return err
	}
	fmt.Print(chart)

	fmt.Printf("\n%-14s %-14s %4s %4s %6s %12s", "scheme", "model", "N", "B", "r", "analytic")
	if o.withSim {
		fmt.Printf(" %12s %10s", "simulated", "Δ%")
	}
	fmt.Println()
	for _, p := range res.Points {
		fmt.Printf("%-14s %-14s %4d %4d %6.2f %12.4f", p.Scheme, p.Model, p.N, p.B, p.R, p.Bandwidth)
		if p.Simulated {
			fmt.Printf(" %12.4f %9.2f%%", p.SimBandwidth, 100*(p.SimBandwidth-p.Bandwidth)/p.Bandwidth)
		}
		fmt.Println()
	}
	reportSkipped(os.Stdout, res.Skipped)
	return nil
}

// reportSkipped surfaces grid points the sweep could not realize —
// previously these vanished silently.
func reportSkipped(w *os.File, skipped []sweep.Skip) {
	if len(skipped) == 0 {
		return
	}
	fmt.Fprintf(w, "\nskipped %d infeasible grid point(s):\n", len(skipped))
	for _, s := range skipped {
		fmt.Fprintf(w, "  %-14s %-14s N=%-3d B=%-3d %s\n", s.Scheme, s.Model, s.N, s.B, s.Reason)
	}
}
