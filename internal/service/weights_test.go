package service

import (
	"math"
	"testing"

	"multibus/internal/scenario"
)

// TestWeightsSaturate: work estimates too large for int64 saturate
// instead of wrapping to a small weight, so they clamp to the full
// admission capacity and run alone.
func TestWeightsSaturate(t *testing.T) {
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
	for _, tc := range []struct {
		name   string
		weight func() int64
	}{
		{"simulate cycles=2^62 n=16", simulate(1 << 62)},
		{"simulate cycles=MaxInt n=16", simulate(math.MaxInt)},
	} {
		if w := tc.weight(); w < math.MaxInt64/weightUnitWork {
			t.Errorf("%s: weight %d, want ≥ %d (saturated)", tc.name, w, int64(math.MaxInt64/weightUnitWork))
		}
	}
	if got := ceilDiv(math.MaxInt64, weightUnitWork); got != math.MaxInt64/weightUnitWork+1 {
		t.Errorf("ceilDiv(MaxInt64, unit) = %d, want %d", got, int64(math.MaxInt64/weightUnitWork+1))
	}
}
