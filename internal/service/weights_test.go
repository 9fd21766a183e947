package service

import (
	"math"
	"testing"

	"multibus/internal/scenario"
	"multibus/internal/sweep"
)

// TestWeightsSaturate: work estimates too large for int64 saturate
// instead of wrapping to a small weight, so they clamp to the full
// admission capacity and run alone.
func TestWeightsSaturate(t *testing.T) {
	full, err := scenario.SweepScheme("full")
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(cycles int) func() int64 {
		return func() int64 {
			built, err := scenario.Scenario{
				Network: scenario.Network{Scheme: "full", N: 16, B: 4},
				Model:   scenario.Model{Kind: "uniform"},
				R:       0.5,
				Sim:     &scenario.Sim{Cycles: cycles},
			}.Build()
			if err != nil {
				t.Fatal(err)
			}
			return simulateWeight(built)
		}
	}
	grid := func(ns []int, bs, rs int, cycles int) func() int64 {
		return func() int64 {
			return sweepWeight(sweep.Spec{
				Ns: ns, Bs: make([]int, bs), Rs: make([]float64, rs),
				Schemes: []scenario.Network{full}, WithSim: true, SimCycles: cycles,
			})
		}
	}
	for _, tc := range []struct {
		name   string
		weight func() int64
	}{
		{"simulate cycles=2^62 n=16", simulate(1 << 62)},
		{"simulate cycles=MaxInt n=16", simulate(math.MaxInt)},
		{"sweep cycles=2^40 n=2^40", grid([]int{1 << 40}, 1, 1, 1<<40)},
		{"sweep cycles=MaxInt n=16", grid([]int{16}, 2, 2, math.MaxInt)},
		{"sweep 2^20 points of 2^62 cycle-procs", grid([]int{1 << 30}, 1024, 1024, 1<<32)},
	} {
		if w := tc.weight(); w < math.MaxInt64/weightUnitWork {
			t.Errorf("%s: weight %d, want ≥ %d (saturated)", tc.name, w, int64(math.MaxInt64/weightUnitWork))
		}
	}
	if got := ceilDiv(math.MaxInt64, weightUnitWork); got != math.MaxInt64/weightUnitWork+1 {
		t.Errorf("ceilDiv(MaxInt64, unit) = %d, want %d", got, int64(math.MaxInt64/weightUnitWork+1))
	}
}
