package workload

import (
	"math"
	"strings"
	"testing"

	"multibus/internal/hrm"
	"multibus/internal/rng"
)

func TestNewUniformValidation(t *testing.T) {
	if _, err := NewUniform(0, 4, 0.5); err == nil {
		t.Error("N=0 should error")
	}
	if _, err := NewUniform(4, 0, 0.5); err == nil {
		t.Error("M=0 should error")
	}
	if _, err := NewUniform(4, 4, -0.1); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := NewUniform(4, 4, 1.1); err == nil {
		t.Error("rate > 1 should error")
	}
	if _, err := NewUniform(4, 4, math.NaN()); err == nil {
		t.Error("NaN rate should error")
	}
}

func TestUniformEmpiricalRateAndSpread(t *testing.T) {
	g, err := NewUniform(4, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NProcessors() != 4 || g.MModules() != 8 || g.Rate() != 0.5 {
		t.Fatalf("accessors wrong: N=%d M=%d r=%v", g.NProcessors(), g.MModules(), g.Rate())
	}
	rng := rng.New(3, 0)
	const cycles = 40000
	requests := 0
	hits := make([]int, 8)
	for c := 0; c < cycles; c++ {
		g.BeginCycle()
		for p := 0; p < 4; p++ {
			if j := g.Next(p, rng); j != NoRequest {
				requests++
				hits[j]++
			}
		}
	}
	rate := float64(requests) / float64(cycles*4)
	if math.Abs(rate-0.5) > 0.01 {
		t.Errorf("empirical rate %.4f, want 0.5", rate)
	}
	for j, h := range hits {
		frac := float64(h) / float64(requests)
		if math.Abs(frac-1.0/8) > 0.01 {
			t.Errorf("module %d drew fraction %.4f, want 0.125", j, frac)
		}
	}
}

func TestHierarchicalEmpiricalFractions(t *testing.T) {
	h, err := hrm.TwoLevelPaper(8, 4, 0.6, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewHierarchical(h, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rng.New(5, 0)
	const cycles = 60000
	// Processor 0: favorite module 0 (0.6), cluster-mate module 1 (0.3),
	// remote 2..7 (0.1/6 each).
	hits := make([]int, 8)
	for c := 0; c < cycles; c++ {
		g.BeginCycle()
		j := g.Next(0, rng)
		if j == NoRequest {
			t.Fatal("r=1 must always request")
		}
		hits[j]++
	}
	if frac := float64(hits[0]) / cycles; math.Abs(frac-0.6) > 0.01 {
		t.Errorf("favorite fraction %.4f, want 0.6", frac)
	}
	if frac := float64(hits[1]) / cycles; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("cluster fraction %.4f, want 0.3", frac)
	}
	remote := 0
	for j := 2; j < 8; j++ {
		remote += hits[j]
	}
	if frac := float64(remote) / cycles; math.Abs(frac-0.1) > 0.01 {
		t.Errorf("remote fraction %.4f, want 0.1", frac)
	}
	if NewHierarchicalMustErr := func() error { _, err := NewHierarchical(nil, 0.5); return err }(); NewHierarchicalMustErr == nil {
		t.Error("nil hierarchy should error")
	}
}

func TestHierarchicalNM(t *testing.T) {
	h, err := hrm.NewNMFromAggregates([]int{2, 2}, 3, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewHierarchicalNM(h, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NProcessors() != 4 || g.MModules() != 6 {
		t.Fatalf("N=%d M=%d, want 4, 6", g.NProcessors(), g.MModules())
	}
	rng := rng.New(9, 0)
	const cycles = 40000
	fav := 0
	for c := 0; c < cycles; c++ {
		g.BeginCycle()
		j := g.Next(0, rng)
		if j < 0 || j >= 6 {
			t.Fatalf("bad module %d", j)
		}
		if j < 3 { // processor 0's subcluster owns modules 0..2
			fav++
		}
	}
	if frac := float64(fav) / cycles; math.Abs(frac-0.8) > 0.01 {
		t.Errorf("favorite-subcluster fraction %.4f, want 0.8", frac)
	}
	if _, err := NewHierarchicalNM(nil, 0.5); err == nil {
		t.Error("nil hierarchy should error")
	}
}

func TestHotSpotConcentration(t *testing.T) {
	g, err := NewHotSpot(4, 8, 1.0, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rng.New(13, 0)
	const cycles = 40000
	hot := 0
	for c := 0; c < cycles; c++ {
		g.BeginCycle()
		if g.Next(1, rng) == 3 {
			hot++
		}
	}
	if frac := float64(hot) / cycles; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("hot fraction %.4f, want 0.5", frac)
	}
}

func TestHotSpotValidation(t *testing.T) {
	if _, err := NewHotSpot(4, 1, 1.0, 0, 0.5); err == nil {
		t.Error("M=1 should error")
	}
	if _, err := NewHotSpot(4, 8, 1.0, 8, 0.5); err == nil {
		t.Error("hot module out of range should error")
	}
	if _, err := NewHotSpot(4, 8, 1.0, 0, 1.5); err == nil {
		t.Error("hot fraction > 1 should error")
	}
	if _, err := NewHotSpot(0, 8, 1.0, 0, 0.5); err == nil {
		t.Error("N=0 should error")
	}
}

func TestNextOutOfRangeProcessor(t *testing.T) {
	g, err := NewUniform(2, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rng.New(1, 0)
	if g.Next(-1, rng) != NoRequest || g.Next(2, rng) != NoRequest {
		t.Error("out-of-range processors should return NoRequest")
	}
}

func TestZeroRateNeverRequests(t *testing.T) {
	g, err := NewUniform(4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rng.New(2, 0)
	for c := 0; c < 100; c++ {
		g.BeginCycle()
		for p := 0; p < 4; p++ {
			if g.Next(p, rng) != NoRequest {
				t.Fatal("r=0 generator issued a request")
			}
		}
	}
}

func TestTraceReplay(t *testing.T) {
	cycles := [][]Request{
		{{0, 1}, {1, 0}},
		{{0, 2}},
		{},
	}
	g, err := NewTrace(2, 3, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if g.NProcessors() != 2 || g.MModules() != 3 {
		t.Fatalf("N=%d M=%d", g.NProcessors(), g.MModules())
	}
	// Empirical rate: 3 requests / (3 cycles × 2 processors) = 0.5.
	if r := g.Rate(); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("trace rate %v, want 0.5", r)
	}
	// Before BeginCycle, no requests.
	if g.Next(0, nil) != NoRequest {
		t.Error("trace issued request before BeginCycle")
	}
	want := [][]int{{1, 0}, {2, NoRequest}, {NoRequest, NoRequest}}
	for loop := 0; loop < 2; loop++ { // trace wraps around
		for c, row := range want {
			g.BeginCycle()
			for p, wantMod := range row {
				if got := g.Next(p, nil); got != wantMod {
					t.Errorf("loop %d cycle %d processor %d: got %d, want %d",
						loop, c, p, got, wantMod)
				}
			}
		}
	}
	if g.Next(5, nil) != NoRequest {
		t.Error("out-of-range processor should be idle")
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(2, 3, nil); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := NewTrace(0, 3, [][]Request{{}}); err == nil {
		t.Error("N=0 should error")
	}
	if _, err := NewTrace(2, 3, [][]Request{{{5, 0}}}); err == nil {
		t.Error("processor out of range should error")
	}
	if _, err := NewTrace(2, 3, [][]Request{{{0, 9}}}); err == nil {
		t.Error("module out of range should error")
	}
	if _, err := NewTrace(2, 3, [][]Request{{{0, 1}, {0, 2}}}); err == nil {
		t.Error("duplicate processor in cycle should error")
	}
}

func TestGeneratorStrings(t *testing.T) {
	g, _ := NewUniform(4, 4, 0.5)
	if s := g.(interface{ String() string }).String(); !strings.Contains(s, "Uniform") {
		t.Errorf("String = %q", s)
	}
	tr, _ := NewTrace(2, 2, [][]Request{{}})
	if s := tr.(interface{ String() string }).String(); !strings.Contains(s, "Trace") {
		t.Errorf("String = %q", s)
	}
}

func TestBernoulliDistributionValidation(t *testing.T) {
	// Distribution not summing to 1 is rejected via NewTrace-independent
	// path: construct through a broken hierarchy is impossible, so reach
	// newBernoulli through its exported wrappers with a crafted case —
	// covered here by the unnormalized-hot-spot guard: hot=1 with m−1
	// zero-probability modules still sums to 1 and is accepted.
	g, err := NewHotSpot(2, 4, 1.0, 2, 1.0)
	if err != nil {
		t.Fatalf("degenerate hot spot should be valid: %v", err)
	}
	rng := rng.New(4, 0)
	for i := 0; i < 50; i++ {
		g.BeginCycle()
		if j := g.Next(0, rng); j != 2 {
			t.Fatalf("hot=1 drew module %d, want 2", j)
		}
	}
}

type stubGenerator struct{}

func (stubGenerator) NProcessors() int        { return 1 }
func (g stubGenerator) Clone() Generator      { return g }
func (stubGenerator) MModules() int           { return 1 }
func (stubGenerator) Rate() float64           { return 0 }
func (stubGenerator) BeginCycle()             {}
func (stubGenerator) Next(int, *rng.Rand) int { return NoRequest }

func TestModuleXs(t *testing.T) {
	// Bernoulli: hot-spot closed form.
	g, err := NewHotSpot(4, 4, 0.5, 1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := ModuleXs(g)
	if err != nil {
		t.Fatal(err)
	}
	wantHot := 1 - math.Pow(1-0.5*0.7, 4)
	if math.Abs(xs[1]-wantHot) > 1e-12 {
		t.Errorf("hot X = %v, want %v", xs[1], wantHot)
	}
	// The Xs must also match Monte-Carlo frequencies.
	rng := rng.New(17, 0)
	const cycles = 60000
	hits := make([]float64, 4)
	for c := 0; c < cycles; c++ {
		g.BeginCycle()
		seen := map[int]bool{}
		for p := 0; p < 4; p++ {
			if j := g.Next(p, rng); j != NoRequest && !seen[j] {
				seen[j] = true
				hits[j]++
			}
		}
	}
	for j := range hits {
		if diff := math.Abs(hits[j]/cycles - xs[j]); diff > 0.01 {
			t.Errorf("module %d empirical %v vs closed form %v", j, hits[j]/cycles, xs[j])
		}
	}
	// Trace generators measure; unknown generators error.
	tr, err := NewTrace(2, 2, [][]Request{{{0, 0}}, {}})
	if err != nil {
		t.Fatal(err)
	}
	txs, err := ModuleXs(tr)
	if err != nil {
		t.Fatal(err)
	}
	if txs[0] != 0.5 || txs[1] != 0 {
		t.Errorf("trace Xs = %v, want [0.5 0]", txs)
	}
	if _, err := ModuleXs(stubGenerator{}); err == nil {
		t.Error("unknown generator should error")
	}
}

func TestZipfShape(t *testing.T) {
	g, err := NewZipf(4, 8, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := ModuleXs(g)
	if err != nil {
		t.Fatal(err)
	}
	// Popularity strictly decreasing in rank.
	for j := 1; j < len(xs); j++ {
		if xs[j] >= xs[j-1] {
			t.Errorf("Zipf not decreasing at %d: %v ≥ %v", j, xs[j], xs[j-1])
		}
	}
	// s=0 is uniform.
	u, err := NewZipf(4, 8, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	uxs, err := ModuleXs(u)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(uxs); j++ {
		if math.Abs(uxs[j]-uxs[0]) > 1e-12 {
			t.Errorf("s=0 not uniform: %v", uxs)
		}
	}
	// The per-module fractions follow 1/k^s: the rank-1:rank-2 request
	// ratio for a single processor is 2^s.
	rng := rng.New(23, 0)
	hits := make([]float64, 8)
	const cycles = 80000
	for c := 0; c < cycles; c++ {
		g.BeginCycle()
		if j := g.Next(0, rng); j != NoRequest {
			hits[j]++
		}
	}
	if ratio := hits[0] / hits[1]; math.Abs(ratio-2) > 0.1 {
		t.Errorf("rank1/rank2 ratio %.3f, want ≈2 (s=1)", ratio)
	}
	// Validation.
	if _, err := NewZipf(0, 8, 1.0, 1.0); err == nil {
		t.Error("N=0 should error")
	}
	if _, err := NewZipf(4, 8, 1.0, -1); err == nil {
		t.Error("negative exponent should error")
	}
	if _, err := NewZipf(4, 8, 1.5, 1); err == nil {
		t.Error("bad rate should error")
	}
}
