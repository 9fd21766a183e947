package cache

import (
	"math"
	"strconv"
	"strings"
)

// Key builders. A key is a canonical string: a kind prefix, the
// structural fingerprints of the topology and the request model, and
// every numeric parameter that influences the result. Floats are
// rendered as the hex of their IEEE-754 bit pattern, so two requests
// share a key exactly when they are bit-identical — no formatting
// rounding, no false hits across nearby rates.

// AnalyzeKey keys one closed-form evaluation: Analyze(nw, model, r).
func AnalyzeKey(networkFP, modelFP uint64, r float64) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString("analyze|")
	writeKeyParts(&b, networkFP, modelFP, r)
	return b.String()
}

// SimParams carries every simulator knob that changes a run's result;
// all of them fold into SimulateKey. Zero values mean "engine default"
// and key identically to the explicit defaults only if callers
// normalize first (scenario.Built normalizes; see (*Built).simParams).
type SimParams struct {
	Cycles        int
	Warmup        int
	Batches       int
	ServiceCycles int
	Seed          int64
	Resubmit      bool
	RoundRobin    bool
}

// SimulateKey keys one simulation: Simulate(nw, workload(model, r), p).
func SimulateKey(networkFP, modelFP uint64, r float64, p SimParams) string {
	var b strings.Builder
	b.Grow(128)
	b.WriteString("simulate|")
	writeKeyParts(&b, networkFP, modelFP, r)
	for _, v := range [...]int64{
		int64(p.Cycles), int64(p.Warmup), int64(p.Batches),
		int64(p.ServiceCycles), p.Seed, b2i(p.Resubmit), b2i(p.RoundRobin),
	} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}

// SweepPointKey keys one sweep grid point. Sweep points live in their
// own key space (not AnalyzeKey's) because a point stores a sweep.Point
// — scheme-tagged, optionally with a simulator cross-check — rather
// than a full Analysis; the scheme tag also separates the crossbar
// reference curve from the full network it is computed on.
func SweepPointKey(scheme string, networkFP, modelFP uint64, r float64, withSim bool, simCycles int, seed int64) string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString("sweeppt|")
	b.WriteString(scheme)
	b.WriteByte('|')
	writeKeyParts(&b, networkFP, modelFP, r)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(b2i(withSim), 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(simCycles))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(seed, 10))
	return b.String()
}

func writeKeyParts(b *strings.Builder, networkFP, modelFP uint64, r float64) {
	b.WriteString(strconv.FormatUint(networkFP, 16))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(modelFP, 16))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(math.Float64bits(r), 16))
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
