package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"multibus/internal/scenario"
	"multibus/internal/service"
)

// workload is one seeded traffic mix. Request i of a workload's stream
// is a pure function of (seed, i): the warm-up pass sends indices
// [0, warmup), the timed window continues from warmup, and the traced
// run replays the window's first indices in-process. The server only
// ever sees the generated bodies.
type workload struct {
	name  string
	route string
	// instances is the number of mbserve processes (2 = a -peers
	// cluster). All load goes to the first.
	instances int
	// warmup is the number of requests in each set-up's warm-up pass.
	warmup int
	// setups is how many times a run sets the servers up; setup_s is
	// the median, and the last set-up's servers serve the timed window.
	setups int
	// traced is the number of window requests the traced run replays.
	traced int
	body   func(i int) []byte
	// sampled reports whether response i is compared with its
	// reference; nil means every response is. Unsampled responses get
	// the route's cheap shape check instead.
	sampled func(i int) bool
}

// Paper schemes (Figs. 1–4) in the order every workload cycles them.
var schemes = []string{scenario.SchemeFull, scenario.SchemeSingle, scenario.SchemePartial, scenario.SchemeKClass}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"analyze-hot", "analyze-large", "sweep-sim", "cluster-analyze"}

// newWorkload builds the named workload's request stream for seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "analyze-hot":
		return analyzeHot(seed), nil
	case "analyze-large":
		return analyzeLarge(seed), nil
	case "sweep-sim":
		return sweepSim(seed), nil
	case "cluster-analyze":
		return clusterAnalyze(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix derives 64 well-mixed bits from (seed, stream, i) with the
// splitmix64 finalizer, so every request's randomness depends only on
// its own index and never on generation order or concurrency.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed) ^ stream*0xd6e8feb86659fd93 ^ i*0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit is mix mapped to [0, 1).
func unit(seed int64, stream, i uint64) float64 {
	return float64(mix(seed, stream, i)>>11) / (1 << 53)
}

// permutation is a seeded Fisher–Yates shuffle of [0, n).
func permutation(seed int64, stream uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for k := n - 1; k > 0; k-- {
		j := int(mix(seed, stream, uint64(k)) % uint64(k+1))
		p[k], p[j] = p[j], p[k]
	}
	return p
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain request structs always marshal
	}
	return b
}

func analyzeBody(scheme string, n, m, b int, model string, r float64) []byte {
	return mustJSON(service.AnalyzeRequest{
		Network: scenario.Network{Scheme: scheme, N: n, M: m, B: b},
		Model:   scenario.Model{Kind: model},
		R:       r,
	})
}

// hotRates is the number of request rates per analyze-hot network:
// 3 sizes × 4 schemes × 17 rates = 204 distinct scenarios.
const hotRates = 17

// analyzeHot: paper-sized scenarios (N ∈ {8,16,32}, B = N/2, all four
// schemes, the hier model, a few rates) drawn with Zipf popularity
// after a warm-up pass that sends each scenario once, so the window
// reads the cache and barely computes.
func analyzeHot(seed int64) *workload {
	var bodies [][]byte
	for _, n := range []int{8, 16, 32} {
		for _, sc := range schemes {
			for k := 0; k < hotRates; k++ {
				// Rates sit in disjoint sub-intervals of [0.1, 1], so they
				// stay distinct after rounding to three decimals.
				u := unit(seed, 1, uint64(k))
				r := 0.1 + 0.9*(float64(k)+0.1+0.8*u)/hotRates
				bodies = append(bodies, analyzeBody(sc, n, 0, n/2, scenario.ModelHier, math.Round(r*1000)/1000))
			}
		}
	}
	order := permutation(seed, 2, len(bodies))
	// Zipf(s = 1.1) popularity over the shuffled scenarios.
	cdf := make([]float64, len(bodies))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -1.1)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &workload{
		name:      "analyze-hot",
		setups:    9,
		route:     "/v1/analyze",
		instances: 1,
		warmup:    len(bodies),
		traced:    2000,
		body: func(i int) []byte {
			if i < len(bodies) {
				return bodies[order[i]]
			}
			rank := sort.SearchFloat64s(cdf, unit(seed, 3, uint64(i)))
			if rank >= len(cdf) {
				rank = len(cdf) - 1
			}
			return bodies[order[rank]]
		},
	}
}

// largePool is the analyze-large scenario pool: larger than the
// server's 4096-entry LRU, so a strictly cyclic walk over it misses on
// every request once the warm-up pass has filled the cache.
const (
	largePool   = service.DefaultCacheSize + 512
	largeWarmup = service.DefaultCacheSize // the window starts with a full cache
)

// analyzeLarge: N = M = 512, B = 64, the four schemes, the uniform model
// and a distinct rate per pool entry. Every request misses and, once the
// cache is full, every insert evicts.
func analyzeLarge(seed int64) *workload {
	bodies := make([][]byte, largePool)
	for j := range bodies {
		u := unit(seed, 4, uint64(j))
		r := 0.05 + 0.9*(float64(j)+0.1+0.8*u)/largePool
		bodies[j] = analyzeBody(schemes[j%len(schemes)], 512, 512, 64, scenario.ModelUniform, r)
	}
	order := permutation(seed, 5, largePool)
	return &workload{
		name:      "analyze-large",
		setups:    3,
		route:     "/v1/analyze",
		instances: 1,
		warmup:    largeWarmup,
		traced:    256,
		body:      func(i int) []byte { return bodies[order[i%largePool]] },
	}
}

// sweepSimCycles keeps one 16-point simulated sweep near 5 ms on two
// cores, so a 10 s window holds well over the 1000 requests a p99 with
// ten samples beyond it needs.
const sweepSimCycles = 200

// sweepSim: POST /v1/sweep with the simulator on over a 16-point grid
// (4 schemes × B ∈ {4,8} × r ∈ {0.5,1.0}, N = 16) and a fresh seed per
// request, so every point misses. A seeded sixteenth of the responses is
// checked against an in-process sweep.Run.
func sweepSim(seed int64) *workload {
	return &workload{
		name:      "sweep-sim",
		setups:    9,
		route:     "/v1/sweep",
		instances: 1,
		warmup:    8,
		traced:    48,
		body: func(i int) []byte {
			return mustJSON(service.SweepRequest{
				Ns:           []int{16},
				Bs:           []int{4, 8},
				Rs:           []float64{0.5, 1.0},
				Schemes:      []string{"full", "single", "partial", "kclasses"},
				Hierarchical: true,
				WithSim:      true,
				SimCycles:    sweepSimCycles,
				Seed:         int64(mix(seed, 6, uint64(i))>>2) + 1,
			})
		},
		sampled: func(i int) bool { return unit(seed, 7, uint64(i)) < 1.0/16 },
	}
}

// clusterAnalyze: two -peers instances, all load on the first, paper-
// sized analyze misses (N ∈ {16,32,64}, B = N/4, hier model) with a
// distinct rate per request, so the keys the peer owns are forwarded.
func clusterAnalyze(seed int64) *workload {
	// The golden-ratio sequence never repeats a rate within a run.
	const phi = 0.6180339887498949
	offset := unit(seed, 8, 0)
	return &workload{
		name:      "cluster-analyze",
		setups:    9,
		route:     "/v1/analyze",
		instances: 2,
		warmup:    256,
		traced:    1000,
		body: func(i int) []byte {
			h := mix(seed, 9, uint64(i))
			n := []int{16, 32, 64}[h%3]
			frac := math.Mod(offset+float64(i)*phi, 1)
			return analyzeBody(schemes[(h>>8)%4], n, 0, n/4, scenario.ModelHier, 0.05+0.9*frac)
		},
	}
}
