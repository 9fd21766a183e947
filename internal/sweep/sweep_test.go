package sweep

import (
	"errors"
	"math"
	"strings"
	"testing"

	"multibus/internal/scenario"
)

// schemes parses sweep axis names, failing the test on bad names.
func schemes(t *testing.T, names ...string) []scenario.Network {
	t.Helper()
	out := make([]scenario.Network, len(names))
	for i, name := range names {
		nw, err := scenario.SweepScheme(name)
		if err != nil {
			t.Fatalf("SweepScheme(%q): %v", name, err)
		}
		out[i] = nw
	}
	return out
}

func TestRunBasicGrid(t *testing.T) {
	res, err := Run(Spec{
		Ns:           []int{8, 16},
		Bs:           []int{2, 4, 8, 16},
		Rs:           []float64{0.5, 1.0},
		Schemes:      schemes(t, "full", "single", "partial", "kclasses"),
		Hierarchical: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every scheme covers all valid (N, B) pairs: B ≤ N, scheme
	// divisibility holds for these powers of two.
	// Full: (8: 2,4,8)+(16: 2,4,8,16) = 7 pairs × 2 rates = 14 points.
	count := map[string]int{}
	for _, p := range res.Points {
		count[p.Scheme]++
		if p.B > p.N {
			t.Errorf("point %+v has B > N", p)
		}
		if p.Bandwidth <= 0 || p.Bandwidth > float64(p.B)+1e-9 {
			t.Errorf("point %+v bandwidth out of range", p)
		}
		if p.X <= 0 || p.X > 1 {
			t.Errorf("point %+v X out of range", p)
		}
		if p.Simulated {
			t.Errorf("point %+v simulated without WithSim", p)
		}
		if p.Model != "hier" {
			t.Errorf("point %+v model tag != hier", p)
		}
	}
	for _, s := range []string{"full", "single", "partial-g2", "kclasses"} {
		if count[s] != 14 {
			t.Errorf("scheme %v has %d points, want 14", s, count[s])
		}
	}
	// The only invalid combinations here are B=16 at N=8 (one per
	// scheme/model combination), and they are reported, not silent.
	if len(res.Skipped) != 4 {
		t.Errorf("skipped = %d combinations, want 4: %+v", len(res.Skipped), res.Skipped)
	}
	for _, sk := range res.Skipped {
		if sk.N != 8 || sk.B != 16 || sk.Reason == "" {
			t.Errorf("unexpected skip %+v", sk)
		}
	}
}

func TestRunSpecValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Error("empty spec should error")
	}
	if _, err := Run(Spec{Ns: []int{8}, Bs: []int{16}, Rs: []float64{1}, Schemes: schemes(t, "full")}); err == nil {
		t.Error("grid with no valid points should error")
	}
	bad := []scenario.Network{{Scheme: "mesh"}}
	if _, err := Run(Spec{Ns: []int{8}, Bs: []int{4}, Rs: []float64{1}, Schemes: bad}); !errors.Is(err, scenario.ErrInvalid) {
		t.Error("unknown scheme should error")
	}
	// A bad rate is invalid input, not a structural skip.
	if _, err := Run(Spec{Ns: []int{8}, Bs: []int{4}, Rs: []float64{1.5}, Schemes: schemes(t, "full")}); !errors.Is(err, scenario.ErrInvalid) {
		t.Error("r > 1 should error")
	}
	// Hotspot has no closed form and cannot be swept.
	if _, err := Run(Spec{
		Ns: []int{8}, Bs: []int{4}, Rs: []float64{1},
		Schemes: schemes(t, "full"),
		Models:  []scenario.Model{{Kind: scenario.ModelHotSpot}},
	}); !errors.Is(err, ErrBadSpec) {
		t.Error("hotspot model should be rejected")
	}
}

// TestHierFallbackInSweep: the shared cluster rule means N=6 runs with 2
// clusters (it used to abort the whole sweep), while N=5 is reported as
// skipped.
func TestHierFallbackInSweep(t *testing.T) {
	res, err := Run(Spec{
		Ns:           []int{5, 6},
		Bs:           []int{2},
		Rs:           []float64{1},
		Schemes:      schemes(t, "full"),
		Hierarchical: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].N != 6 {
		t.Fatalf("points = %+v, want exactly N=6", res.Points)
	}
	if len(res.Skipped) != 1 || res.Skipped[0].N != 5 {
		t.Fatalf("skipped = %+v, want exactly N=5", res.Skipped)
	}
	if !strings.Contains(res.Skipped[0].Reason, "hier") {
		t.Errorf("skip reason %q does not mention the hier constraint", res.Skipped[0].Reason)
	}
}

func TestRunSkipsInvalidCombinations(t *testing.T) {
	// Odd B skips partial-g2; B not dividing N skips kclasses — and both
	// skips are reported with reasons.
	res, err := Run(Spec{
		Ns:      []int{8},
		Bs:      []int{3},
		Rs:      []float64{1.0},
		Schemes: schemes(t, "full", "partial", "kclasses"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Scheme != "full" {
			t.Errorf("unexpected evaluated point %+v", p)
		}
	}
	if len(res.Skipped) != 2 {
		t.Fatalf("skipped = %+v, want partial-g2 and kclasses", res.Skipped)
	}
	for _, sk := range res.Skipped {
		if sk.Scheme != "partial-g2" && sk.Scheme != "kclasses" {
			t.Errorf("unexpected skip %+v", sk)
		}
		if sk.Reason == "" {
			t.Errorf("skip %+v has empty reason", sk)
		}
	}
}

// TestDasBhuyanAndClassSizesAxes: the scenario axes reach grid points
// the old enum could not — Das–Bhuyan workloads and explicit class
// sizes.
func TestDasBhuyanAndClassSizesAxes(t *testing.T) {
	res, err := Run(Spec{
		Ns:      []int{16},
		Bs:      []int{4},
		Rs:      []float64{1.0},
		Schemes: []scenario.Network{{Scheme: scenario.SchemeKClass, ClassSizes: []int{2, 6, 8}}},
		Models:  []scenario.Model{{Kind: scenario.ModelDasBhuyan, Q: 0.7}, {Kind: scenario.ModelUniform}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %+v, want 2", res.Points)
	}
	byModel := map[string]Point{}
	for _, p := range res.Points {
		if p.Scheme != "kclass[2,6,8]" {
			t.Errorf("scheme tag = %q", p.Scheme)
		}
		byModel[p.Model] = p
	}
	das, ok := byModel["dasbhuyan-q0.7"]
	if !ok {
		t.Fatalf("no dasbhuyan point in %+v", res.Points)
	}
	unif := byModel["uniform"]
	if das.Bandwidth <= 0 || unif.Bandwidth <= 0 {
		t.Errorf("non-positive bandwidths: %+v", res.Points)
	}
	if das.X == unif.X {
		t.Error("dasbhuyan and uniform produced identical X; model axis ignored?")
	}
}

func TestRunWithSim(t *testing.T) {
	res, err := Run(Spec{
		Ns:           []int{8},
		Bs:           []int{4},
		Rs:           []float64{1.0},
		Schemes:      schemes(t, "full"),
		Hierarchical: true,
		WithSim:      true,
		SimCycles:    20000,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	p := res.Points[0]
	if !p.Simulated || p.SimBandwidth <= 0 || p.SimCI95 <= 0 {
		t.Fatalf("sim fields not populated: %+v", p)
	}
	if rel := math.Abs(p.SimBandwidth-p.Bandwidth) / p.Bandwidth; rel > 0.05 {
		t.Errorf("sim %.4f vs analytic %.4f beyond 5%%", p.SimBandwidth, p.Bandwidth)
	}
}

func TestCrossbarScheme(t *testing.T) {
	res, err := Run(Spec{
		Ns:           []int{8},
		Bs:           []int{8},
		Rs:           []float64{1.0},
		Schemes:      schemes(t, "crossbar", "full"),
		Hierarchical: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var xb, full float64
	for _, p := range res.Points {
		switch p.Scheme {
		case "crossbar":
			xb = p.Bandwidth
		case "full":
			full = p.Bandwidth
		}
	}
	if math.Abs(xb-full) > 1e-9 {
		t.Errorf("crossbar %.6f != full B=N %.6f", xb, full)
	}
}

func TestSeriesExtraction(t *testing.T) {
	res, err := Run(Spec{
		Ns:      []int{16},
		Bs:      []int{2, 4, 8, 16},
		Rs:      []float64{0.5, 1.0},
		Schemes: schemes(t, "full"),
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, bws := Series(res.Points, "full", 16, 1.0)
	if len(bs) != 4 || len(bws) != 4 {
		t.Fatalf("series lengths %d, %d; want 4", len(bs), len(bws))
	}
	for i := 1; i < len(bws); i++ {
		if bws[i] < bws[i-1]-1e-12 {
			t.Errorf("bandwidth not monotone in B: %v", bws)
		}
	}
	// Non-existent slice is empty.
	if bs, _ := Series(res.Points, "single", 16, 1.0); len(bs) != 0 {
		t.Errorf("unexpected series %v", bs)
	}
}

// TestEstimatePoints: the admission layer weighs sweeps by grid
// cardinality before Run starts; the estimate must match the grid
// product, substituting one default model for an empty Models axis.
func TestEstimatePoints(t *testing.T) {
	spec := Spec{
		Ns:      []int{8, 16},
		Bs:      []int{2, 4, 8},
		Rs:      []float64{0.5, 1.0},
		Schemes: schemes(t, "full", "partial-g4"),
	}
	if got := spec.EstimatePoints(); got != 2*3*2*2 {
		t.Errorf("EstimatePoints = %d, want 24 (empty Models counts as one default)", got)
	}
	spec.Models = []scenario.Model{{Kind: scenario.ModelUniform}, {Kind: scenario.ModelHier}, {Kind: scenario.ModelDasBhuyan}}
	if got := spec.EstimatePoints(); got != 2*3*2*2*3 {
		t.Errorf("EstimatePoints with models = %d, want 72", got)
	}
	if got := (Spec{}).EstimatePoints(); got != 0 {
		t.Errorf("empty Spec EstimatePoints = %d, want 0", got)
	}
}

// TestEstimatePointsSaturates: a grid whose axis product overflows int
// must not wrap to a small or negative estimate — the request edge
// compares it against the grid cap before anything is enumerated. The
// shape fits in a 1 MiB request body (40 000 "full" schemes and 120 000
// entries on each numeric axis) and wraps to about −4.67e18 in plain
// int arithmetic. The sweep is only estimated, never run.
func TestEstimatePointsSaturates(t *testing.T) {
	const schemeCount, axisLen = 40000, 120000
	spec := Spec{
		Ns:      make([]int, axisLen),
		Bs:      make([]int, axisLen),
		Rs:      make([]float64, axisLen),
		Schemes: make([]scenario.Network, schemeCount),
	}
	got := spec.EstimatePoints()
	if got <= 65536 {
		t.Fatalf("EstimatePoints = %d, want > 65536 (never negative)", got)
	}
	if got != math.MaxInt {
		t.Errorf("EstimatePoints = %d, want saturation at math.MaxInt", got)
	}
}
