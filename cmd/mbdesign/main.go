// Command mbdesign searches the multiple bus design space: it enumerates
// every configuration of the four connection schemes for an N×N system,
// filters by bandwidth / fault-tolerance / cost constraints, and prints
// the feasible candidates with the Pareto frontier marked — the paper's
// §IV scheme-selection guidance, automated.
//
// Usage:
//
//	mbdesign -n 16
//	mbdesign -n 32 -minbw 12 -mindegree 3 -maxconn 1200
//	mbdesign -n 16 -r 0.5 -workload unif -frontier
package main

import (
	"flag"
	"fmt"
	"os"

	"multibus/internal/design"
	"multibus/internal/scenario"
)

func main() {
	var (
		n            = flag.Int("n", 16, "number of processors (and modules)")
		r            = flag.Float64("r", 1.0, "request rate")
		wl           = flag.String("workload", "hier", "workload: hier or unif")
		minBW        = flag.Float64("minbw", 0, "minimum bandwidth (requests/cycle)")
		minDegree    = flag.Int("mindegree", 0, "minimum fault-tolerance degree")
		maxConn      = flag.Int("maxconn", 0, "maximum connections (0 = unconstrained)")
		maxLoad      = flag.Int("maxload", 0, "maximum per-bus load (0 = unconstrained)")
		frontierOnly = flag.Bool("frontier", false, "print only the Pareto frontier")
	)
	flag.Parse()
	if err := run(*n, *r, *wl, *minBW, *minDegree, *maxConn, *maxLoad, *frontierOnly); err != nil {
		fmt.Fprintln(os.Stderr, "mbdesign:", err)
		os.Exit(1)
	}
}

func run(n int, r float64, wl string, minBW float64, minDegree, maxConn, maxLoad int, frontierOnly bool) error {
	model, err := scenario.Model{Kind: wl}.Build(n)
	if err != nil {
		return err
	}
	cs, err := design.Explore(n, model, r, design.Constraints{
		MinBandwidth:   minBW,
		MinFaultDegree: minDegree,
		MaxConnections: maxConn,
		MaxBusLoad:     maxLoad,
	})
	if err != nil {
		return err
	}
	if frontierOnly {
		cs = design.Frontier(cs)
	}
	if len(cs) == 0 {
		fmt.Println("no feasible configurations")
		return nil
	}
	fmt.Printf("design space for N=%d, %s workload, r=%.2f (%d candidates):\n\n", n, wl, r, len(cs))
	fmt.Printf("%-38s %4s %4s %4s %10s %12s %9s %7s %7s\n",
		"scheme", "B", "g", "K", "bandwidth", "connections", "max load", "degree", "pareto")
	for _, c := range cs {
		mark := ""
		if c.Pareto {
			mark = "*"
		}
		g, k := "-", "-"
		if c.G > 0 {
			g = fmt.Sprintf("%d", c.G)
		}
		if c.K > 0 {
			k = fmt.Sprintf("%d", c.K)
		}
		fmt.Printf("%-38s %4d %4s %4s %10.4f %12d %9d %7d %7s\n",
			c.Scheme, c.B, g, k, c.Bandwidth, c.Connections, c.MaxBusLoad, c.FaultDegree, mark)
	}
	return nil
}
