// Benchmark harness: one benchmark per table and figure of the paper.
//
// Each BenchmarkTable* regenerates its table from the closed-form models,
// prints the same rows the paper reports (once per run, alongside a
// verdict against the paper's printed values), and reports the maximum
// absolute error as the custom metric "maxerr(×1e-3)". BenchmarkFigure*
// regenerate the architecture diagrams. BenchmarkSim* measure simulator
// throughput, and BenchmarkAblation* quantify the design choices called
// out in DESIGN.md (stage-1 policy, drop-vs-resubmit, choice of K).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package multibus

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"multibus/internal/analytic"
	"multibus/internal/arbiter"
	"multibus/internal/design"
	"multibus/internal/exact"
	"multibus/internal/hrm"
	"multibus/internal/markov"
	"multibus/internal/numerics"
	"multibus/internal/sim"
	"multibus/internal/tables"
	"multibus/internal/topology"
	"multibus/internal/workload"
)

// printOnce guards the one-time artifact dump of each benchmark so
// repeated b.N iterations do not flood the output.
var printOnce sync.Map

func dumpOnce(key string, dump func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		dump()
	}
}

// benchmarkTable regenerates table id b.N times, printing it and its
// paper comparison once.
func benchmarkTable(b *testing.B, id string) {
	b.Helper()
	var maxErr float64
	for i := 0; i < b.N; i++ {
		computed, err := tables.Generate(id)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := tables.Compare(computed, tables.PaperTable(id), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		maxErr = cmp.MaxAbsError
		dumpOnce("table-"+id, func() {
			fmt.Println()
			_ = computed.Render(os.Stdout)
			fmt.Println(cmp)
		})
	}
	b.ReportMetric(maxErr*1e3, "maxerr(×1e-3)")
}

// BenchmarkTableII regenerates paper Table II (full connection, r=1.0).
func BenchmarkTableII(b *testing.B) { benchmarkTable(b, "II") }

// BenchmarkTableIII regenerates paper Table III (full connection, r=0.5).
func BenchmarkTableIII(b *testing.B) { benchmarkTable(b, "III") }

// BenchmarkTableIVr10 regenerates paper Table IV, r=1.0 half (single
// connection).
func BenchmarkTableIVr10(b *testing.B) { benchmarkTable(b, "IVa") }

// BenchmarkTableIVr05 regenerates paper Table IV, r=0.5 half.
func BenchmarkTableIVr05(b *testing.B) { benchmarkTable(b, "IVb") }

// BenchmarkTableVr10 regenerates paper Table V, r=1.0 half (partial bus,
// g=2).
func BenchmarkTableVr10(b *testing.B) { benchmarkTable(b, "Va") }

// BenchmarkTableVr05 regenerates paper Table V, r=0.5 half.
func BenchmarkTableVr05(b *testing.B) { benchmarkTable(b, "Vb") }

// BenchmarkTableVIr10 regenerates paper Table VI, r=1.0 half (K=B
// classes).
func BenchmarkTableVIr10(b *testing.B) { benchmarkTable(b, "VIa") }

// BenchmarkTableVIr05 regenerates paper Table VI, r=0.5 half.
func BenchmarkTableVIr05(b *testing.B) { benchmarkTable(b, "VIb") }

// BenchmarkTableI regenerates the cost/fault-tolerance summary (paper
// Table I) for the §IV configuration family.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full, err := NewFullNetwork(16, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		single, err := NewSingleBusNetwork(16, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		partial, err := NewPartialBusNetwork(16, 16, 8, 2)
		if err != nil {
			b.Fatal(err)
		}
		kclass, err := NewEvenKClassNetwork(16, 16, 8, 8)
		if err != nil {
			b.Fatal(err)
		}
		nws := []*Network{full, single, partial, kclass}
		for _, nw := range nws {
			if _, err := Cost(nw); err != nil {
				b.Fatal(err)
			}
		}
		dumpOnce("table-I", func() {
			fmt.Printf("\nTable I — N=16 M=16 B=8 g=2 K=8\n")
			fmt.Printf("%-38s %12s %9s %7s\n", "scheme", "connections", "max load", "degree")
			for _, nw := range nws {
				c, _ := Cost(nw)
				fmt.Printf("%-38s %12d %9d %7d\n", nw.Scheme(), c.Connections, c.MaxBusLoad, c.FaultDegree)
			}
		})
	}
}

// benchmarkFigure renders one paper figure per iteration.
func benchmarkFigure(b *testing.B, key string, build func() (*topology.Network, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		nw, err := build()
		if err != nil {
			b.Fatal(err)
		}
		d := nw.Diagram()
		if len(d) == 0 {
			b.Fatal("empty diagram")
		}
		dumpOnce(key, func() { fmt.Println(); fmt.Print(d) })
	}
}

// BenchmarkFigure1 renders Fig. 1 (full bus–memory connection).
func BenchmarkFigure1(b *testing.B) {
	benchmarkFigure(b, "fig1", func() (*topology.Network, error) { return topology.Full(4, 4, 2) })
}

// BenchmarkFigure2 renders Fig. 2 (partial bus network, g=2).
func BenchmarkFigure2(b *testing.B) {
	benchmarkFigure(b, "fig2", func() (*topology.Network, error) { return topology.PartialGroups(4, 4, 2, 2) })
}

// BenchmarkFigure3 renders Fig. 3 (the paper's 3×6×4 K-class example).
func BenchmarkFigure3(b *testing.B) {
	benchmarkFigure(b, "fig3", func() (*topology.Network, error) { return topology.KClasses(3, 4, []int{2, 2, 2}) })
}

// BenchmarkFigure4 renders Fig. 4 (single bus–memory connection).
func BenchmarkFigure4(b *testing.B) {
	benchmarkFigure(b, "fig4", func() (*topology.Network, error) { return topology.SingleBus(4, 4, 2) })
}

// benchWorkload builds the paper workload for n processors at rate r.
func benchWorkload(b *testing.B, n int, r float64) workload.Generator {
	b.Helper()
	h, err := hrm.TwoLevelPaper(n, 4, 0.6, 0.3, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewHierarchical(h, r)
	if err != nil {
		b.Fatal(err)
	}
	return gen
}

// benchmarkSim measures simulated cycles per second for a scheme.
// benchCycles clamps b.N to the simulator's minimum batch size.
func benchCycles(n int) int {
	if n < 2 {
		return 2
	}
	return n
}

func benchmarkSim(b *testing.B, build func() (*topology.Network, error)) {
	b.Helper()
	nw, err := build()
	if err != nil {
		b.Fatal(err)
	}
	gen := benchWorkload(b, nw.N(), 1.0)
	b.ResetTimer()
	res, err := sim.Run(sim.Config{
		Topology: nw,
		Workload: gen,
		Cycles:   benchCycles(b.N),
		Warmup:   0,
		Batches:  2,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Bandwidth, "req/cycle")
}

// BenchmarkSimFull measures simulator throughput on a 16×16×8 full
// network (ns per simulated cycle).
func BenchmarkSimFull(b *testing.B) {
	benchmarkSim(b, func() (*topology.Network, error) { return topology.Full(16, 16, 8) })
}

// BenchmarkSimSingle measures simulator throughput on a single-connection
// network.
func BenchmarkSimSingle(b *testing.B) {
	benchmarkSim(b, func() (*topology.Network, error) { return topology.SingleBus(16, 16, 8) })
}

// BenchmarkSimPartial measures simulator throughput on a partial (g=2)
// network.
func BenchmarkSimPartial(b *testing.B) {
	benchmarkSim(b, func() (*topology.Network, error) { return topology.PartialGroups(16, 16, 8, 2) })
}

// BenchmarkSimKClasses measures simulator throughput on a K=B class
// network (the two-step assignment procedure).
func BenchmarkSimKClasses(b *testing.B) {
	benchmarkSim(b, func() (*topology.Network, error) { return topology.EvenKClasses(16, 16, 8, 8) })
}

// BenchmarkAnalyticFull measures one evaluation of equation (4) at
// N=1024, B=512 — the closed forms stay fast far beyond paper scale.
func BenchmarkAnalyticFull(b *testing.B) {
	h, err := hrm.TwoLevelPaper(1024, 4, 0.6, 0.3, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := NewFullNetwork(1024, 1024, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(nw, h, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// classifySink keeps the compiler from discarding benchmarked results.
var classifySink *analytic.Structure

// BenchmarkAnalyticClassify512 measures analytic.Classify on the
// N=M=512, B=64 networks of the service's large-analyze workload, with
// the scenario defaults for partial (g=2) and kclass (K=B) networks.
func BenchmarkAnalyticClassify512(b *testing.B) {
	for _, tc := range []struct {
		scheme string
		build  func() (*topology.Network, error)
	}{
		{"full", func() (*topology.Network, error) { return topology.Full(512, 512, 64) }},
		{"single", func() (*topology.Network, error) { return topology.SingleBus(512, 512, 64) }},
		{"partial", func() (*topology.Network, error) { return topology.PartialGroups(512, 512, 64, 2) }},
		{"kclass", func() (*topology.Network, error) { return topology.EvenKClasses(512, 512, 64, 64) }},
	} {
		b.Run(tc.scheme, func(b *testing.B) {
			nw, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if classifySink, err = analytic.Classify(nw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBinomialRow measures one full Binomial(n, p) row fill (PMF,
// CDF, and truncated-excess prefixes) into reused scratch — the O(n)
// batch primitive every analytic formula now queries in O(1). The
// steady state must be allocation-free (also pinned by
// TestBinomialRowResetDoesNotAllocate).
func BenchmarkBinomialRow(b *testing.B) {
	for _, n := range []int{32, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var row numerics.BinomialRow
			if err := row.Reset(n, 0.37); err != nil {
				b.Fatal(err)
			}
			ps := [2]float64{0.37, 0.62}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate p so Reset cannot short-circuit on Matches.
				if err := row.Reset(n, ps[i&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStage1Policy compares memory-arbiter tie-break
// policies: the paper's random selection vs round-robin vs fixed
// priority. Bandwidth is insensitive (the winner count per module is 1
// either way); fairness is what changes — reported as the max/min
// per-processor acceptance ratio.
func BenchmarkAblationStage1Policy(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy arbiter.Stage1Policy
	}{
		{"random", arbiter.PolicyRandom},
		{"roundrobin", arbiter.PolicyRoundRobin},
		{"priority", arbiter.PolicyFixedPriority},
	} {
		b.Run(tc.name, func(b *testing.B) {
			nw, err := topology.Full(16, 16, 8)
			if err != nil {
				b.Fatal(err)
			}
			gen := benchWorkload(b, 16, 1.0)
			b.ResetTimer()
			res, err := sim.Run(sim.Config{
				Topology:     nw,
				Workload:     gen,
				Stage1Policy: tc.policy,
				Cycles:       benchCycles(b.N),
				Warmup:       0,
				Batches:      2,
				Seed:         1,
			})
			if err != nil {
				b.Fatal(err)
			}
			minAcc, maxAcc := int64(1<<62), int64(0)
			for _, a := range res.ProcessorAccepted {
				if a < minAcc {
					minAcc = a
				}
				if a > maxAcc {
					maxAcc = a
				}
			}
			b.ReportMetric(res.Bandwidth, "req/cycle")
			if minAcc > 0 {
				b.ReportMetric(float64(maxAcc)/float64(minAcc), "unfairness")
			}
		})
	}
}

// BenchmarkAblationDropVsResubmit quantifies the gap between the paper's
// assumption 5 (blocked requests vanish) and the realistic resubmission
// regime on a saturated 16×16×4 system.
func BenchmarkAblationDropVsResubmit(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode sim.Mode
	}{
		{"drop", sim.ModeDrop},
		{"resubmit", sim.ModeResubmit},
	} {
		b.Run(tc.name, func(b *testing.B) {
			nw, err := topology.Full(16, 16, 4)
			if err != nil {
				b.Fatal(err)
			}
			gen := benchWorkload(b, 16, 1.0)
			b.ResetTimer()
			res, err := sim.Run(sim.Config{
				Topology: nw,
				Workload: gen,
				Mode:     tc.mode,
				Cycles:   benchCycles(b.N),
				Warmup:   0,
				Batches:  2,
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Bandwidth, "req/cycle")
			b.ReportMetric(res.MeanWaitCycles, "wait")
		})
	}
}

// BenchmarkAblationKChoice sweeps the number of classes K at fixed
// N=16, B=8: more classes cut connection cost but shrink the guaranteed
// fault degree B−K and, with small classes, strand low-numbered buses
// (Y_1 → 0 under the two-step procedure).
func BenchmarkAblationKChoice(b *testing.B) {
	h, err := hrm.TwoLevelPaper(16, 4, 0.6, 0.3, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			nw, err := NewEvenKClassNetwork(16, 16, 8, k)
			if err != nil {
				b.Fatal(err)
			}
			var bw float64
			for i := 0; i < b.N; i++ {
				a, err := Analyze(nw, h, 1.0)
				if err != nil {
					b.Fatal(err)
				}
				bw = a.Bandwidth
			}
			b.ReportMetric(bw, "req/cycle")
			b.ReportMetric(float64(nw.NumConnections()), "connections")
			b.ReportMetric(float64(nw.FaultToleranceDegree()), "degree")
		})
	}
}

// BenchmarkAblationAssigner compares the paper's structured stage-2
// assigners against the greedy fallback on the same K-class network —
// the greedy matcher recovers the capacity the two-step procedure
// strands on low-numbered buses.
func BenchmarkAblationAssigner(b *testing.B) {
	nw, err := topology.EvenKClasses(16, 16, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func() (arbiter.BusAssigner, error)
	}{
		{"two-step", func() (arbiter.BusAssigner, error) { return arbiter.ForTopology(nw) }},
		{"greedy", func() (arbiter.BusAssigner, error) { return arbiter.NewGreedyAssigner(nw) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			assigner, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			gen := benchWorkload(b, 16, 1.0)
			b.ResetTimer()
			res, err := sim.Run(sim.Config{
				Topology: nw,
				Workload: gen,
				Assigner: assigner,
				Cycles:   benchCycles(b.N),
				Warmup:   0,
				Batches:  2,
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Bandwidth, "req/cycle")
		})
	}
}

// BenchmarkExactBandwidth measures the subset-DP exact evaluator at the
// largest supported paper configuration (M = 16, 65536 subsets).
func BenchmarkExactBandwidth(b *testing.B) {
	h, err := hrm.TwoLevelPaper(16, 4, 0.6, 0.3, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := exact.FromProbVectors(h, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := topology.Full(16, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	var v float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err = exact.Bandwidth(nw, pm, 1.0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v, "req/cycle")
}

// BenchmarkMarkovResubmit measures the exact resubmission chain on a
// 4×4×2 system (625 states).
func BenchmarkMarkovResubmit(b *testing.B) {
	h, err := hrm.TwoLevelPaper(4, 2, 0.6, 0.3, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := exact.FromProbVectors(h, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := topology.Full(4, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	var v float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := markov.Solve(nw, pm, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		v = res.Throughput
	}
	b.ReportMetric(v, "req/cycle")
}

// BenchmarkDesignExplore measures a full design-space sweep for N=16
// (56 candidate configurations with Pareto marking).
func BenchmarkDesignExplore(b *testing.B) {
	h, err := hrm.TwoLevelPaper(16, 4, 0.6, 0.3, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	var count int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := design.Explore(16, h, 1.0, design.Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		count = len(cs)
	}
	b.ReportMetric(float64(count), "candidates")
}
