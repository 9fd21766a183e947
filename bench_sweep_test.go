// The sweep benchmarks drive internal/sweep directly and use nothing of
// the multibus façade, so they sit in the external test package beside
// the service-path benchmarks.
package multibus_test

import (
	"context"
	"testing"

	"multibus/internal/scenario"
	"multibus/internal/sim"
	"multibus/internal/sweep"
)

// BenchmarkAnalyticSweepPoint measures the marginal cost of one analytic
// grid point inside a sweep: a full-connection B axis at N=64, where the
// incremental evaluator wires and classifies the topology once per
// (scheme, model, N, B) combination, computes X once per rate, and
// serves every bandwidth from shared binomial rows. ns/op is per point,
// not per Run.
func BenchmarkAnalyticSweepPoint(b *testing.B) {
	spec := sweep.Spec{
		Ns:      []int{64},
		Bs:      []int{1, 2, 4, 8, 16, 32, 64},
		Rs:      []float64{0.25, 0.5, 0.75, 1.0},
		Schemes: []scenario.Network{{Scheme: scenario.SchemeFull}},
		Models:  []scenario.Model{{Kind: scenario.ModelHier}},
		Workers: 1,
	}
	points := len(spec.Bs) * len(spec.Rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != points {
			b.Fatalf("got %d points, want %d", len(res.Points), points)
		}
	}
	b.StopTimer()
	// Normalize to per-point cost: the loop above ran b.N full grids.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
}

// BenchmarkSimSweepPoint measures the simulator half of one simulated
// sweep point at the shape the service's simulated sweeps serve: N=M=16,
// B=4, the hierarchical model at r=0.5, 200 measured cycles plus the
// default warm-up. Each op builds the generator and the engine, as
// compute.SweepPoint pays per point; ns/cycle divides by the simulated
// cycles, warm-up included.
func BenchmarkSimSweepPoint(b *testing.B) {
	const cycles = 200
	for _, tc := range []struct {
		name   string
		scheme string
	}{
		{"full", scenario.SchemeFull},
		{"single", scenario.SchemeSingle},
		{"partial", scenario.SchemePartial},
		{"kclasses", scenario.SchemeKClass},
	} {
		b.Run(tc.name, func(b *testing.B) {
			built, err := scenario.Scenario{
				Network: scenario.Network{Scheme: tc.scheme, N: 16, B: 4},
				Model:   scenario.Model{Kind: scenario.ModelHier},
				R:       0.5,
				Sim:     &scenario.Sim{Cycles: cycles, Seed: 1},
			}.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg, err := built.SimConfig()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunContext(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(cycles+cycles/10)), "ns/cycle")
		})
	}
}
