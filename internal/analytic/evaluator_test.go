package analytic

import (
	"math"
	"math/rand"
	"testing"

	"multibus/internal/numerics"
)

// TestEvaluatorMatchesPackageFunctions pins the Evaluator methods
// bit-for-bit against the package-level entry points across every
// formula family: both run the same code on the same row values, so any
// divergence is a caching bug (stale row served for the wrong (n, p)).
func TestEvaluatorMatchesPackageFunctions(t *testing.T) {
	e := NewEvaluator()
	for _, x := range []float64{0, 0.25, 0.6, 1} {
		for _, n := range []int{4, 16, 32} {
			for b := 1; b <= n; b *= 2 {
				want, err := BandwidthFull(n, b, x)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.BandwidthFull(n, b, x)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("BandwidthFull(%d,%d,%v): evaluator %v, package %v", n, b, x, got, want)
				}
			}
			want, err := BandwidthPartialGroups(n, n/2, 2, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.BandwidthPartialGroups(n, n/2, 2, x)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("BandwidthPartialGroups(%d,%d,2,%v): evaluator %v, package %v", n, n/2, x, got, want)
			}
		}
		sizes := []int{4, 4, 8}
		want, err := BandwidthKClasses(sizes, 4, x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.BandwidthKClasses(sizes, 4, x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("BandwidthKClasses(%v,4,%v): evaluator %v, package %v", sizes, x, got, want)
		}
	}
}

// TestEvaluatorSingleEvenMatchesSlice pins BandwidthSingleEven against
// BandwidthSingle with an explicit equal-count slice: the even form
// accumulates the same addend the same number of times through the same
// compensated sum, so the results must be bit-identical.
func TestEvaluatorSingleEvenMatchesSlice(t *testing.T) {
	e := NewEvaluator()
	for _, x := range []float64{0, 0.3, 0.87, 1} {
		for _, b := range []int{1, 3, 8} {
			counts := make([]int, b)
			for i := range counts {
				counts[i] = 4
			}
			want, err := BandwidthSingle(counts, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.BandwidthSingleEven(4, b, x)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("BandwidthSingleEven(4,%d,%v) = %v, BandwidthSingle = %v", b, x, got, want)
			}
		}
	}
}

// TestEvaluatorRowEviction exercises the round-robin recycling path by
// demanding more distinct rows than the cache holds, then re-verifying
// values — recycled scratch must not leak stale distributions.
func TestEvaluatorRowEviction(t *testing.T) {
	e := NewEvaluator()
	for round := 0; round < 2; round++ {
		for n := 1; n <= 2*evaluatorMaxRows; n++ {
			got, err := e.BandwidthFull(n, 1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BandwidthFull(n, 1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("after eviction, BandwidthFull(%d,1,0.5) = %v, want %v", n, got, want)
			}
		}
	}
}

// TestEvaluatorSteadyStateDoesNotAllocate pins the hot-path contract:
// once an Evaluator has served a working set, re-evaluating the same
// distributions performs zero allocations — the row cache, the class
// scratch, and every query path reuse existing backing arrays.
func TestEvaluatorSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEvaluator()
	sizes := []int{8, 8, 16}
	warm := func() {
		for b := 1; b <= 16; b *= 2 {
			if _, err := e.BandwidthFull(32, b, 0.37); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.BandwidthPartialGroups(32, 8, 2, 0.37); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BandwidthKClasses(sizes, 4, 0.37); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BandwidthSingleEven(4, 8, 0.37); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Errorf("steady-state evaluation allocates %v times per run, want 0", allocs)
	}
}

// TestEvaluatorStructureDispatch checks BandwidthStructure against the
// direct formulas for both structure kinds and rejects a nil structure.
func TestEvaluatorStructureDispatch(t *testing.T) {
	e := NewEvaluator()
	groups := &Structure{Kind: StructureIndependentGroups, Groups: []GroupSpec{{Modules: 8, Buses: 2}, {Modules: 8, Buses: 2}}}
	got, err := e.BandwidthStructure(groups, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BandwidthIndependentGroups(groups.Groups, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("BandwidthStructure(groups) = %v, want %v", got, want)
	}
	prefix := &Structure{Kind: StructurePrefixClasses, Classes: []PrefixClass{{Size: 8, PrefixLen: 2}, {Size: 8, PrefixLen: 4}}}
	got, err = BandwidthStructure(prefix, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err = BandwidthPrefixClasses(prefix.Classes, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("BandwidthStructure(prefix) = %v, want %v", got, want)
	}
	if _, err := e.BandwidthStructure(nil, 4, 0.5); err == nil {
		t.Error("nil structure accepted")
	}
	if v, err := e.BandwidthStructure(groups, 4, math.NaN()); err == nil {
		t.Errorf("NaN x accepted: %v", v)
	}
}

// referencePrefixUtilization is the bus-outer form of equation (11):
// for each bus i, the product of the CDF factors of every class with
// L_c ≥ i, taken in class order, each from a freshly built row. It is
// the reference the class-outer evaluator loop must match bit for bit.
func referencePrefixUtilization(classes []PrefixClass, b int, x float64) ([]float64, float64, error) {
	ys := make([]float64, b)
	var sum numerics.KahanSum
	var r numerics.BinomialRow
	for i := 1; i <= b; i++ {
		idle := 1.0
		for _, cl := range classes {
			if cl.PrefixLen < i || cl.Size == 0 {
				continue
			}
			if err := r.Reset(cl.Size, x); err != nil {
				return nil, 0, err
			}
			idle *= r.CDF(cl.PrefixLen - i)
		}
		ys[i-1] = 1 - idle
		sum.Add(ys[i-1])
	}
	return ys, sum.Value(), nil
}

// randomPrefixClasses draws a valid class set over b buses: arbitrary
// (not necessarily nested or sorted) prefix lengths, sizes up to 47, and
// empty classes, some of them with PrefixLen 0.
func randomPrefixClasses(rng *rand.Rand, b int) []PrefixClass {
	classes := make([]PrefixClass, 1+rng.Intn(48))
	for c := range classes {
		if rng.Intn(6) == 0 {
			classes[c] = PrefixClass{Size: 0, PrefixLen: rng.Intn(b + 1)}
			continue
		}
		classes[c] = PrefixClass{Size: 1 + rng.Intn(47), PrefixLen: 1 + rng.Intn(b)}
	}
	return classes
}

// TestPrefixClassesMatchBusOuterReference pins BandwidthPrefixClasses
// and BusUtilizationPrefixClasses bit for bit against the bus-outer
// reference on seeded random class sets. One Evaluator serves every set
// at a fresh rate each time, so its row cache is full of stale rows and
// sets with more than evaluatorMaxRows distinct sizes force evictions
// in the middle of an evaluation.
func TestPrefixClassesMatchBusOuterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Always include one set with more distinct sizes than the row cache
	// holds, an empty class with PrefixLen 0, and the edge rates.
	wide := make([]PrefixClass, 0, 2*evaluatorMaxRows+1)
	for sz := 1; sz <= 2*evaluatorMaxRows; sz++ {
		wide = append(wide, PrefixClass{Size: sz, PrefixLen: 1 + (sz*7)%64})
	}
	wide = append(wide, PrefixClass{Size: 0, PrefixLen: 0})
	type tc struct {
		classes []PrefixClass
		b       int
		x       float64
	}
	cases := []tc{{wide, 64, 0.37}, {wide, 64, 0}, {wide, 64, 1}}
	for i := 0; i < 300; i++ {
		b := 1 + rng.Intn(64)
		cases = append(cases, tc{randomPrefixClasses(rng, b), b, rng.Float64()})
	}
	e := NewEvaluator()
	distinctWide := 0
	for _, c := range cases {
		sizes := map[int]bool{}
		for _, cl := range c.classes {
			if cl.Size > 0 {
				sizes[cl.Size] = true
			}
		}
		if len(sizes) > evaluatorMaxRows {
			distinctWide++
		}
		wantYs, want, err := referencePrefixUtilization(c.classes, c.b, c.x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.BandwidthPrefixClasses(c.classes, c.b, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("BandwidthPrefixClasses(%v, b=%d, x=%v) = %v, bus-outer reference %v", c.classes, c.b, c.x, got, want)
		}
		pkg, err := BandwidthPrefixClasses(c.classes, c.b, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pkg) != math.Float64bits(want) {
			t.Errorf("package BandwidthPrefixClasses(%v, b=%d, x=%v) = %v, reference %v", c.classes, c.b, c.x, pkg, want)
		}
		ys, err := BusUtilizationPrefixClasses(c.classes, c.b, c.x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ys {
			if math.Float64bits(ys[i]) != math.Float64bits(wantYs[i]) {
				t.Errorf("BusUtilizationPrefixClasses(%v, b=%d, x=%v)[%d] = %v, reference %v", c.classes, c.b, c.x, i, ys[i], wantYs[i])
			}
		}
	}
	if distinctWide == 0 {
		t.Fatal("no case had more distinct class sizes than the row cache holds")
	}
}
