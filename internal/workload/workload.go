// Package workload provides per-cycle memory request generators for the
// Monte-Carlo simulator: the paper's hierarchical requesting model, the
// uniform model, the Das–Bhuyan favorite-memory baseline, hot-spot
// traffic, and deterministic trace replay.
//
// A Generator answers, independently per processor and per cycle,
// "which module does processor p request this cycle, if any" — matching
// the paper's assumptions 2 and 3 (independent requests, rate r per
// cycle). All randomness flows through the caller's *rng.Rand stream so
// runs are reproducible from a seed.
package workload

import (
	"errors"
	"fmt"
	"math"

	"multibus/internal/hrm"
	"multibus/internal/rng"
)

// NoRequest is returned by Next when a processor stays idle this cycle.
const NoRequest = -1

// Errors returned by generator constructors.
var (
	ErrBadConfig = errors.New("workload: invalid configuration")
	ErrBadRate   = errors.New("workload: request rate outside [0, 1]")
)

// Generator produces memory requests. Implementations must be
// deterministic given the sequence of RNG draws.
type Generator interface {
	// NProcessors returns the processor count N.
	NProcessors() int
	// MModules returns the module count M.
	MModules() int
	// Rate returns the per-cycle request probability r.
	Rate() float64
	// BeginCycle advances per-cycle state (a no-op for memoryless
	// generators; trace replay uses it to step its cursor).
	BeginCycle()
	// Next returns the module processor p requests this cycle, or
	// NoRequest. It must be called at most once per processor per cycle.
	Next(p int, rng *rng.Rand) int
	// Clone returns an independent generator with the same
	// configuration and fresh per-cycle state, for running parallel
	// replications. Memoryless generators may return themselves.
	Clone() Generator
}

// bernoulli is the common memoryless generator: each processor requests
// with probability r; the destination is drawn from a per-processor
// distribution via inverse-CDF sampling.
type bernoulli struct {
	n, m  int
	r     float64
	cdf   [][]float64 // per processor: cumulative destination distribution
	guide [][]int32   // per processor: guideSlots(m) inverse-CDF start points
	name  string
}

// guideSlots is the guide-table size K for m modules. Each slot covers
// 1/K of [0, 1); with K = 4M a lookup scans past a quarter of a module
// per draw on average, whatever the distribution's shape.
func guideSlots(m int) int { return 4 * m }

// fillGuide writes the Chen–Asau guide table of a cumulative
// distribution: guide[k] is the smallest j with cdf[j] ≥ k/K.
func fillGuide(guide []int32, cdf []float64) {
	slots := float64(len(guide))
	j := 0
	for i := range guide {
		for cdf[j] < float64(i)/slots {
			j++
		}
		guide[i] = int32(j)
	}
}

func newBernoulli(name string, r float64, dists [][]float64, m int) (*bernoulli, error) {
	if r < 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("%w: r=%v", ErrBadRate, r)
	}
	if len(dists) == 0 {
		return nil, fmt.Errorf("%w: no processors", ErrBadConfig)
	}
	cdf := make([][]float64, len(dists))
	guide := make([][]int32, len(dists))
	k := guideSlots(m)
	cdfs := make([]float64, len(dists)*m)
	guides := make([]int32, len(dists)*k)
	for p, dist := range dists {
		if len(dist) != m {
			return nil, fmt.Errorf("%w: processor %d has %d-module distribution, M=%d",
				ErrBadConfig, p, len(dist), m)
		}
		acc := 0.0
		row := cdfs[p*m : (p+1)*m : (p+1)*m]
		for j, pr := range dist {
			if pr < 0 || math.IsNaN(pr) {
				return nil, fmt.Errorf("%w: processor %d module %d probability %v",
					ErrBadConfig, p, j, pr)
			}
			acc += pr
			row[j] = acc
		}
		if math.Abs(acc-1) > 1e-6 {
			return nil, fmt.Errorf("%w: processor %d distribution sums to %v", ErrBadConfig, p, acc)
		}
		row[m-1] = 1 // clamp accumulated rounding
		cdf[p] = row
		guide[p] = guides[p*k : (p+1)*k : (p+1)*k]
		fillGuide(guide[p], row)
	}
	return &bernoulli{n: len(dists), m: m, r: r, cdf: cdf, guide: guide, name: name}, nil
}

func (g *bernoulli) NProcessors() int { return g.n }

// Clone returns the generator itself: bernoulli generators carry no
// mutable state, so they are safe to share.
func (g *bernoulli) Clone() Generator { return g }

func (g *bernoulli) MModules() int { return g.m }
func (g *bernoulli) Rate() float64 { return g.r }
func (g *bernoulli) BeginCycle()   {}

func (g *bernoulli) Next(p int, rng *rng.Rand) int {
	if p < 0 || p >= g.n {
		return NoRequest
	}
	if g.r < 1 && rng.Float64() >= g.r {
		return NoRequest
	}
	return g.sample(p, rng.Float64())
}

// sample maps u ∈ [0, 1) to processor p's destination: the smallest j
// with cdf[j] ≥ u, the index sort.SearchFloat64s finds, in O(1) expected
// steps. The guide slot of u is a start point at or below the answer up
// to the rounding of u·K; the two scans settle it exactly, including
// across runs of zero-probability modules. The slot needs no clamp:
// u ≤ 1−2⁻⁵³, and K·(1−2⁻⁵³) rounds below K for every integer K ≤ 2⁵³.
func (g *bernoulli) sample(p int, u float64) int {
	cdf, guide := g.cdf[p], g.guide[p]
	j := int(guide[int(u*float64(len(guide)))])
	for j > 0 && cdf[j-1] >= u {
		j--
	}
	for cdf[j] < u {
		j++
	}
	return j
}

func (g *bernoulli) String() string {
	return fmt.Sprintf("workload.%s{N=%d, M=%d, r=%g}", g.name, g.n, g.m, g.r)
}

// NewHierarchical builds the paper's hierarchical requesting workload for
// an N×N×B system from an hrm.Hierarchy and per-cycle rate r.
func NewHierarchical(h *hrm.Hierarchy, r float64) (Generator, error) {
	if h == nil {
		return nil, fmt.Errorf("%w: nil hierarchy", ErrBadConfig)
	}
	n := h.N()
	dists := make([][]float64, n)
	for p := 0; p < n; p++ {
		v, err := h.ProbVector(p)
		if err != nil {
			return nil, err
		}
		dists[p] = v
	}
	return newBernoulli("Hierarchical", r, dists, n)
}

// NewHierarchicalNM builds the general N×M×B hierarchical workload.
func NewHierarchicalNM(h *hrm.HierarchyNM, r float64) (Generator, error) {
	if h == nil {
		return nil, fmt.Errorf("%w: nil hierarchy", ErrBadConfig)
	}
	n, m := h.NProcessors(), h.MModules()
	dists := make([][]float64, n)
	for p := 0; p < n; p++ {
		v, err := h.ProbVector(p)
		if err != nil {
			return nil, err
		}
		dists[p] = v
	}
	return newBernoulli("HierarchicalNM", r, dists, m)
}

// NewUniform builds the uniform requesting workload: every processor
// references every module with probability 1/M.
func NewUniform(n, m int, r float64) (Generator, error) {
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("%w: N=%d M=%d", ErrBadConfig, n, m)
	}
	dist := make([]float64, m)
	for j := range dist {
		dist[j] = 1 / float64(m)
	}
	dists := make([][]float64, n)
	for p := range dists {
		dists[p] = dist
	}
	return newBernoulli("Uniform", r, dists, m)
}

// NewHotSpot builds a hot-spot workload: every processor sends fraction
// hot of its requests to module hotModule and spreads the rest uniformly
// over the other modules. A classic stress pattern for memory
// interference.
func NewHotSpot(n, m int, r float64, hotModule int, hot float64) (Generator, error) {
	if n < 1 || m < 2 {
		return nil, fmt.Errorf("%w: N=%d M=%d (need M ≥ 2)", ErrBadConfig, n, m)
	}
	if hotModule < 0 || hotModule >= m {
		return nil, fmt.Errorf("%w: hot module %d of %d", ErrBadConfig, hotModule, m)
	}
	if hot < 0 || hot > 1 || math.IsNaN(hot) {
		return nil, fmt.Errorf("%w: hot fraction %v", ErrBadConfig, hot)
	}
	dist := make([]float64, m)
	rest := (1 - hot) / float64(m-1)
	for j := range dist {
		if j == hotModule {
			dist[j] = hot
		} else {
			dist[j] = rest
		}
	}
	dists := make([][]float64, n)
	for p := range dists {
		dists[p] = dist
	}
	return newBernoulli("HotSpot", r, dists, m)
}

// Request is one trace entry: processor p requests module j.
type Request struct {
	Processor int
	Module    int
}

// trace replays a fixed per-cycle request schedule, wrapping around at
// the end. Useful for regression tests and for driving the simulator
// with externally captured reference streams.
type trace struct {
	n, m   int
	cycles [][]int // cycles[c][p] = module or NoRequest
	cursor int
	began  bool
}

// NewTrace builds a replay generator for n processors and m modules.
// Each element of cycles lists the requests issued in that cycle; a
// processor absent from a cycle stays idle. The trace loops forever.
func NewTrace(n, m int, cycles [][]Request) (Generator, error) {
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("%w: N=%d M=%d", ErrBadConfig, n, m)
	}
	if len(cycles) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadConfig)
	}
	compiled := make([][]int, len(cycles))
	for c, reqs := range cycles {
		row := make([]int, n)
		for p := range row {
			row[p] = NoRequest
		}
		for _, rq := range reqs {
			if rq.Processor < 0 || rq.Processor >= n {
				return nil, fmt.Errorf("%w: cycle %d processor %d of %d",
					ErrBadConfig, c, rq.Processor, n)
			}
			if rq.Module < 0 || rq.Module >= m {
				return nil, fmt.Errorf("%w: cycle %d module %d of %d",
					ErrBadConfig, c, rq.Module, m)
			}
			if row[rq.Processor] != NoRequest {
				return nil, fmt.Errorf("%w: cycle %d processor %d requests twice",
					ErrBadConfig, c, rq.Processor)
			}
			row[rq.Processor] = rq.Module
		}
		compiled[c] = row
	}
	return &trace{n: n, m: m, cycles: compiled, cursor: -1}, nil
}

func (g *trace) NProcessors() int { return g.n }

// Clone returns a fresh replayer over the same cycles, rewound to the
// start.
func (g *trace) Clone() Generator {
	return &trace{n: g.n, m: g.m, cycles: g.cycles, cursor: -1}
}

func (g *trace) MModules() int { return g.m }

// Rate reports the empirical request rate of the trace.
func (g *trace) Rate() float64 {
	total := 0
	for _, row := range g.cycles {
		for _, mod := range row {
			if mod != NoRequest {
				total++
			}
		}
	}
	return float64(total) / float64(len(g.cycles)*g.n)
}

func (g *trace) BeginCycle() {
	g.cursor = (g.cursor + 1) % len(g.cycles)
	g.began = true
}

func (g *trace) Next(p int, _ *rng.Rand) int {
	if !g.began || p < 0 || p >= g.n {
		return NoRequest
	}
	return g.cycles[g.cursor][p]
}

func (g *trace) String() string {
	return fmt.Sprintf("workload.Trace{N=%d, M=%d, cycles=%d}", g.n, g.m, len(g.cycles))
}

// ModuleXs returns the per-module request probabilities implied by a
// generator: x_j = P[at least one processor requests module j in a
// cycle]. Bernoulli-family generators (uniform, hierarchical, hot-spot)
// compute it in closed form from their destination distributions; trace
// generators measure it over one pass of the trace. Generators of other
// kinds return ErrBadConfig.
func ModuleXs(gen Generator) ([]float64, error) {
	switch g := gen.(type) {
	case *bernoulli:
		xs := make([]float64, g.m)
		for j := 0; j < g.m; j++ {
			idle := 1.0
			for p := 0; p < g.n; p++ {
				prob := g.cdf[p][j]
				if j > 0 {
					prob -= g.cdf[p][j-1]
				}
				idle *= 1 - g.r*prob
			}
			xs[j] = 1 - idle
		}
		return xs, nil
	case *trace:
		xs := make([]float64, g.m)
		for _, row := range g.cycles {
			seen := make(map[int]bool)
			for _, mod := range row {
				if mod != NoRequest && !seen[mod] {
					seen[mod] = true
					xs[mod]++
				}
			}
		}
		for j := range xs {
			xs[j] /= float64(len(g.cycles))
		}
		return xs, nil
	default:
		return nil, fmt.Errorf("%w: generator %T has no module probabilities", ErrBadConfig, gen)
	}
}

// NewZipf builds a popularity-skewed workload: module popularity follows
// a Zipf law with exponent s over a random-but-fixed popularity ranking
// shared by all processors — rank-k module referenced proportionally to
// 1/k^s. s = 0 reduces to uniform. The ranking is the identity (module 0
// most popular); permute module indices in the topology, or use the
// placement optimizer, to study layout effects.
func NewZipf(n, m int, r, s float64) (Generator, error) {
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("%w: N=%d M=%d", ErrBadConfig, n, m)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("%w: Zipf exponent %v", ErrBadConfig, s)
	}
	dist := make([]float64, m)
	total := 0.0
	for j := range dist {
		dist[j] = 1 / math.Pow(float64(j+1), s)
		total += dist[j]
	}
	for j := range dist {
		dist[j] /= total
	}
	dists := make([][]float64, n)
	for p := range dists {
		dists[p] = dist
	}
	return newBernoulli("Zipf", r, dists, m)
}
