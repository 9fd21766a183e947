package service

import (
	"fmt"
	"math"

	"multibus/internal/scenario"
	"multibus/internal/sweep"
)

// Admission weights are estimated work, derived from the *canonical*
// scenario — never the raw request body — so two spellings of the same
// configuration (defaults elided vs. spelled out) weigh the same, just
// as they share one cache key. See DESIGN.md §11.
//
// The unit is calibrated to the two cheap operations: one closed-form
// analysis, or one default-sized simulation (20 000 cycles of a
// 16-processor network), each cost 1. Heavier simulations scale by
// cycles×N; sweeps by their grid cardinality.
const (
	weightUnitCycles = 20000
	weightUnitProcs  = 16
	weightUnitWork   = weightUnitCycles * weightUnitProcs

	// analyticPointsPerUnit batches closed-form sweep points: a pure
	// analytic grid point is far cheaper than a simulation, so 16 of
	// them make one unit.
	analyticPointsPerUnit = 16
)

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return a/b + min(a%b, 1)
}

// satMul multiplies two non-negative weights, saturating at
// math.MaxInt64 instead of wrapping, so an estimate too large to count
// still clamps to the full admission capacity.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// maxSimWork bounds the simulated work one request may ask for, in
// processor-cycles: (warmup + cycles) × N for a simulation, and per
// point for a simulated sweep. At the measured 40–85 ns per
// processor-cycle it is 11–23 s of compute, inside the default 30 s
// deadline; larger work could not finish in time anyway, so it is
// refused with a 400 before admission instead of holding units until
// the deadline. Derivation in DESIGN.md §11.
const maxSimWork = 1 << 28

// checkSimWork refuses a simulation of warmup+cycles cycles on n
// processors whose work exceeds maxSimWork. The arithmetic is in
// float64 so no input overflows it; below 2^53 the comparison is exact.
func checkSimWork(warmup, cycles, n int) error {
	if (float64(warmup)+float64(cycles))*float64(n) > maxSimWork {
		return fmt.Errorf("%w: simulating %d warm-up + %d cycles on n=%d processors exceeds the %d processor-cycle limit",
			errBadRequest, warmup, cycles, n, maxSimWork)
	}
	return nil
}

// checkBuiltSimWork applies checkSimWork to a built simulate scenario.
func checkBuiltSimWork(built *scenario.Built) error {
	sim := simOf(built)
	return checkSimWork(sim.Warmup, sim.Cycles, built.Network.N())
}

// simOf returns a built scenario's canonical simulator knobs: its own,
// or the defaults a scenario without a sim block simulates with.
func simOf(built *scenario.Built) scenario.Sim {
	if built.Scenario.Sim != nil {
		return *built.Scenario.Sim
	}
	return scenario.DefaultSim()
}

// analyzeWeight is the admission cost of one closed-form analysis.
func analyzeWeight(*scenario.Built) int64 { return 1 }

// simulateWeight estimates one simulation's admission cost from its
// canonical cycle count and network size.
func simulateWeight(built *scenario.Built) int64 {
	w := ceilDiv(satMul(int64(simOf(built).Cycles), int64(built.Network.N())), weightUnitWork)
	if w < 1 {
		w = 1
	}
	return w
}

// sweepWeight estimates a sweep's admission cost from its grid
// cardinality: analytic points batched analyticPointsPerUnit to the
// unit, simulated points each costing a per-point simulation weight at
// the grid's largest N. Acquire clamps the result to the semaphore
// capacity, so a huge sweep runs alone rather than deadlocking.
func sweepWeight(spec sweep.Spec) int64 {
	points := int64(spec.EstimatePoints())
	if points < 1 {
		points = 1
	}
	if !spec.WithSim {
		w := ceilDiv(points, analyticPointsPerUnit)
		if w < 1 {
			w = 1
		}
		return w
	}
	cycles, maxN := simGrid(spec)
	perPoint := ceilDiv(satMul(int64(cycles), int64(maxN)), weightUnitWork)
	if perPoint < 1 {
		perPoint = 1
	}
	return satMul(points, perPoint)
}

// simGrid returns a simulated sweep's canonical per-point cycle count
// and its largest N: the dimensions of its costliest point.
func simGrid(spec sweep.Spec) (cycles, maxN int) {
	cycles = spec.SimCycles
	if cycles <= 0 {
		cycles = scenario.DefaultSim().Cycles
	}
	maxN = 1
	for _, n := range spec.Ns {
		maxN = max(maxN, n)
	}
	return cycles, maxN
}
