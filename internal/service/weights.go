package service

import (
	"fmt"
	"math"

	"multibus/internal/compute"
	"multibus/internal/scenario"
)

// Admission weights are estimated work, derived from the *canonical*
// scenario — never the raw request body — so two spellings of the same
// configuration (defaults elided vs. spelled out) weigh the same, just
// as they share one cache key. See DESIGN.md §11.
//
// The unit is calibrated to the two cheap operations: one closed-form
// analysis, or one default-sized simulation (20 000 cycles of a
// 16-processor network), each cost 1. Heavier simulations scale by
// cycles×N. A sweep has no weight of its own: each grid point is
// admitted on its cache miss at the weight of one analysis or one
// simulation (pointWeight).
const (
	weightUnitCycles = 20000
	weightUnitProcs  = 16
	weightUnitWork   = weightUnitCycles * weightUnitProcs
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
	sim := built.Sim()
	return checkSimWork(sim.Warmup, sim.Cycles, built.Network.N())
}

// simulateWeight estimates one simulation's admission cost from its
// canonical cycle count and network size.
func simulateWeight(built *scenario.Built) int64 {
	return simWeight(built.Sim().Cycles, built.Network.N())
}

// simWeight is the admission cost of simulating cycles cycles on n
// processors.
func simWeight(cycles, n int) int64 {
	return max(1, ceilDiv(satMul(int64(cycles), int64(n)), weightUnitWork))
}

// pointWeight is the admission cost of one sweep grid point: a
// simulation's weight for a simulated non-crossbar point, one analysis
// otherwise (crossbar points are never simulated).
func pointWeight(jb compute.PointJob) int64 {
	if jb.WithSim && !jb.Built.Crossbar {
		return simulateWeight(jb.Built)
	}
	return 1
}
