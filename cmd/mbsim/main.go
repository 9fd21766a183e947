// Command mbsim runs the cycle-level Monte-Carlo simulator of an N×M×B
// multiple bus network under the two-stage arbitration protocol and,
// when a closed form exists, reports the analytic prediction next to the
// measurement. For small systems (M ≤ 20) it can additionally print the
// exact expectation computed by subset dynamic programming; in resubmit
// mode it prints the adjusted-rate fixed-point estimate.
//
// Usage:
//
//	mbsim -scheme full -n 16 -b 8 -r 1.0 -workload hier
//	mbsim -scheme kclass -n 16 -b 8 -k 8 -cycles 100000 -exact
//	mbsim -scheme partial -n 32 -b 16 -g 2 -mode resubmit
//	mbsim -scheme full -n 4 -b 2 -trace requests.txt
//	mbsim -scenario examples/scenarios/simulate-resubmit.json
package main

import (
	"flag"
	"fmt"
	"os"

	"multibus/internal/analytic"
	"multibus/internal/cliutil"
	"multibus/internal/exact"
	"multibus/internal/scenario"
	"multibus/internal/sim"
	"multibus/internal/topology"
	"multibus/internal/workload"
)

func main() {
	var o options
	o.spec = cliutil.RegisterScenarioFlags(flag.CommandLine, cliutil.Defaults{})
	flag.StringVar(&o.tracePath, "trace", "", "replay a request trace file instead of a stochastic workload")
	flag.StringVar(&o.wiringPath, "wiring", "", "load a custom wiring file instead of -scheme")
	flag.IntVar(&o.cycles, "cycles", 50000, "measured cycles")
	flag.Int64Var(&o.seed, "seed", 1, "RNG seed")
	flag.StringVar(&o.mode, "mode", "drop", "blocked request handling: drop (paper) or resubmit")
	flag.IntVar(&o.service, "service", 1, "cycles a module stays busy per accepted request")
	flag.BoolVar(&o.withExact, "exact", false, "also compute the exact expectation (M ≤ 20)")
	flag.BoolVar(&o.verbose, "v", false, "print per-module, per-bus, and per-processor statistics")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mbsim:", err)
		os.Exit(1)
	}
}

type options struct {
	spec       *cliutil.ScenarioFlags
	tracePath  string
	wiringPath string
	cycles     int
	seed       int64
	service    int
	mode       string
	withExact  bool
	verbose    bool
}

func run(o options) error {
	switch o.mode {
	case "drop", "resubmit":
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
	sc, _, err := o.spec.Scenario()
	if err != nil {
		return err
	}
	// The engine knobs are tool-local flags; a -scenario file's sim block
	// wins field-by-field where it is explicit.
	if sc.Sim == nil {
		sc.Sim = &scenario.Sim{}
	}
	if sc.Sim.Cycles == 0 {
		sc.Sim.Cycles = o.cycles
	}
	if sc.Sim.Seed == 0 {
		sc.Sim.Seed = o.seed
	}
	if sc.Sim.ServiceCycles == 0 {
		sc.Sim.ServiceCycles = o.service
	}
	if o.mode == "resubmit" {
		sc.Sim.Resubmit = true
	}

	var cfg sim.Config
	if o.wiringPath != "" {
		f, err := os.Open(o.wiringPath)
		if err != nil {
			return err
		}
		defer f.Close()
		nw, err := topology.ReadWiring(f)
		if err != nil {
			return err
		}
		knobs, err := sc.Sim.Canonical()
		if err != nil {
			return err
		}
		var gen workload.Generator
		if o.tracePath == "" {
			if gen, err = sc.Model.BuildWorkload(nw.N(), nw.M(), sc.R); err != nil {
				return err
			}
		}
		cfg = knobs.EngineConfig(nw, gen)
	} else {
		bt, err := sc.Build()
		if err != nil {
			return err
		}
		sc = bt.Scenario // canonical: sim defaults and model fields normalized
		switch {
		case o.tracePath == "":
			cfg, err = bt.SimConfig()
		case bt.Crossbar:
			err = bt.CanSimulate()
		default:
			cfg = bt.Sim().EngineConfig(bt.Network, nil)
		}
		if err != nil {
			return err
		}
	}

	wl := sc.Model.Kind
	if wl == "" {
		wl = o.spec.Workload
	}
	if o.tracePath != "" {
		f, err := os.Open(o.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if cfg.Workload, err = workload.NewTraceFromReader(f); err != nil {
			return err
		}
		wl = "trace:" + o.tracePath
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	nw := cfg.Topology
	fmt.Printf("network:    %v\n", nw)
	fmt.Printf("workload:   %s, r=%.2f, mode=%v, %d cycles, seed %d\n",
		wl, cfg.Workload.Rate(), cfg.Mode, cfg.Cycles, cfg.Seed)
	fmt.Printf("bandwidth:  %.4f ± %.4f requests/cycle (95%% CI)\n", res.Bandwidth, res.BandwidthCI95)
	fmt.Printf("acceptance: %.4f  (offered %d, accepted %d)\n", res.AcceptanceProbability, res.Offered, res.Accepted)
	fmt.Printf("blocked:    memory %d, bus %d, stranded %d, module-busy %d\n",
		res.MemoryBlocked, res.BusBlocked, res.StrandedBlocked, res.ModuleBusyBlocked)
	fmt.Printf("bus util:   %.4f\n", res.BusUtilization)
	fmt.Printf("fairness:   %.4f (Jain index over per-processor acceptances)\n", res.JainFairness())
	if res.Mode == sim.ModeResubmit {
		fmt.Printf("mean wait:  %.4f cycles\n", res.MeanWaitCycles)
	}

	// Model-based cross-checks where a matching request model exists; the
	// scenario layer decides which kinds have one (hotspot does not).
	if o.tracePath == "" && nw.N() == nw.M() {
		if model, merr := sc.Model.Build(nw.M()); merr == nil {
			if x, xerr := model.X(sc.R); xerr == nil {
				if pred, aerr := analytic.Bandwidth(nw, x); aerr == nil {
					diff := res.Bandwidth - pred
					fmt.Printf("analytic:   %.4f (X=%.4f, sim−analytic = %+.4f, %.2f%%)\n",
						pred, x, diff, 100*diff/pred)
				}
			}
			if o.withExact {
				if pm, err := exact.FromProbVectors(model, nw.N(), nw.M()); err == nil {
					if ex, err := exact.Bandwidth(nw, pm, sc.R); err != nil {
						fmt.Printf("exact:      unavailable (%v)\n", err)
					} else {
						fmt.Printf("exact:      %.4f (sim−exact = %+.4f)\n", ex, res.Bandwidth-ex)
					}
				}
			}
			if cfg.Mode == sim.ModeResubmit {
				if est, err := analytic.EstimateResubmit(nw, nw.N(), model, sc.R); err == nil {
					fmt.Printf("fixed point: throughput %.4f, wait %.4f cycles (adjusted rate %.4f)\n",
						est.Bandwidth, est.MeanWaitCycles, est.AdjustedRate)
				}
			}
		}
	}

	if o.verbose {
		fmt.Println("\nper-bus service rates:")
		for i, rate := range res.BusServiceRate {
			fmt.Printf("  bus %-3d %.4f\n", i+1, rate)
		}
		fmt.Println("per-module service rates:")
		for j, rate := range res.ModuleServiceRate {
			fmt.Printf("  M%-3d %.4f\n", j, rate)
		}
		fmt.Println("per-processor acceptance:")
		for p := range res.ProcessorAccepted {
			offered := res.ProcessorOffered[p]
			frac := 1.0
			if offered > 0 {
				frac = float64(res.ProcessorAccepted[p]) / float64(offered)
			}
			fmt.Printf("  P%-3d offered %-8d accepted %-8d (%.4f)\n",
				p, offered, res.ProcessorAccepted[p], frac)
		}
	}
	return nil
}
