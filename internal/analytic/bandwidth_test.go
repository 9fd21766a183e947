package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"multibus/internal/hrm"
)

// paperTol absorbs the paper's last-digit rounding in printed tables.
const paperTol = 0.02

func hierX(t *testing.T, n int, r float64) float64 {
	t.Helper()
	h, err := hrm.TwoLevelPaper(n, 4, 0.6, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := h.X(r)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func unifX(t *testing.T, n int, r float64) float64 {
	t.Helper()
	h, err := hrm.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	x, err := h.X(r)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestBandwidthFullTableIISpots(t *testing.T) {
	// Spot values straight out of the paper's Table II (r = 1.0).
	tests := []struct {
		n, b int
		hier bool
		want float64
	}{
		{8, 4, true, 3.97},
		{8, 5, true, 4.85},
		{8, 6, true, 5.52},
		{8, 4, false, 3.87},
		{8, 6, false, 5.04},
		{12, 7, true, 6.91},
		{12, 9, true, 8.34},
		{12, 8, false, 7.24},
		{16, 10, true, 9.85},
		{16, 12, true, 11.20},
		{16, 9, false, 8.72},
		{16, 12, false, 10.13},
	}
	for _, tt := range tests {
		x := hierX(t, tt.n, 1.0)
		if !tt.hier {
			x = unifX(t, tt.n, 1.0)
		}
		got, err := BandwidthFull(tt.n, tt.b, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > paperTol {
			t.Errorf("Table II N=%d B=%d hier=%v: MBW = %.4f, want %.2f",
				tt.n, tt.b, tt.hier, got, tt.want)
		}
	}
}

func TestBandwidthFullTableIIISpots(t *testing.T) {
	// Spot values from Table III (r = 0.5).
	tests := []struct {
		n, b int
		hier bool
		want float64
	}{
		{8, 3, true, 2.67},
		{8, 5, true, 3.38},
		{8, 3, false, 2.57},
		{12, 5, true, 4.41},
		{12, 7, false, 4.72},
		{16, 5, true, 4.83},
		{16, 8, false, 6.15},
	}
	for _, tt := range tests {
		x := hierX(t, tt.n, 0.5)
		if !tt.hier {
			x = unifX(t, tt.n, 0.5)
		}
		got, err := BandwidthFull(tt.n, tt.b, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > paperTol {
			t.Errorf("Table III N=%d B=%d hier=%v: MBW = %.4f, want %.2f",
				tt.n, tt.b, tt.hier, got, tt.want)
		}
	}
}

func TestBandwidthFullSmallBIsExactlyB(t *testing.T) {
	// Table II shows MBW = B for small B: with r=1 the network saturates.
	x := hierX(t, 16, 1.0)
	for b := 1; b <= 7; b++ {
		got, err := BandwidthFull(16, b, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-float64(b)) > 0.01 {
			t.Errorf("N=16 B=%d: MBW = %.4f, want ≈%d (saturated)", b, got, b)
		}
	}
}

func TestBandwidthFullValidation(t *testing.T) {
	if _, err := BandwidthFull(8, 4, -0.1); err == nil {
		t.Error("negative X should error")
	}
	if _, err := BandwidthFull(8, 4, 1.1); err == nil {
		t.Error("X > 1 should error")
	}
	if _, err := BandwidthFull(8, 4, math.NaN()); err == nil {
		t.Error("NaN X should error")
	}
	if _, err := BandwidthFull(0, 4, 0.5); err == nil {
		t.Error("M=0 should error")
	}
	if _, err := BandwidthFull(8, 0, 0.5); err == nil {
		t.Error("B=0 should error")
	}
}

func TestBandwidthSingleTableIVSpots(t *testing.T) {
	// Table IV: each bus carries N/B modules.
	counts := func(n, b int) []int {
		cs := make([]int, b)
		for i := range cs {
			cs[i] = n / b
		}
		return cs
	}
	tests := []struct {
		n, b int
		r    float64
		hier bool
		want float64
	}{
		{8, 4, 1.0, true, 3.74},
		{8, 4, 1.0, false, 3.53},
		{16, 8, 1.0, true, 7.44},
		{16, 8, 1.0, false, 6.99},
		{32, 16, 1.0, true, 14.87},
		{32, 16, 1.0, false, 13.90},
		{8, 4, 0.5, true, 2.73}, // paper prints x.xx 2.7x; computed 2.73
		{16, 8, 0.5, true, 5.39},
		{32, 8, 0.5, true, 7.14},
		{32, 8, 0.5, false, 6.93},
	}
	for _, tt := range tests {
		x := hierX(t, tt.n, tt.r)
		if !tt.hier {
			x = unifX(t, tt.n, tt.r)
		}
		got, err := BandwidthSingle(counts(tt.n, tt.b), x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > paperTol {
			t.Errorf("Table IV N=%d B=%d r=%v hier=%v: MBW = %.4f, want %.2f",
				tt.n, tt.b, tt.r, tt.hier, got, tt.want)
		}
	}
}

func TestBandwidthSingleMatchesCrossbarAtBEqualsN(t *testing.T) {
	// The paper notes single connection with B = N equals the crossbar.
	for _, n := range []int{8, 16, 32} {
		x := hierX(t, n, 1.0)
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		single, err := BandwidthSingle(ones, x)
		if err != nil {
			t.Fatal(err)
		}
		xb, err := BandwidthCrossbar(n, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single-xb) > 1e-9 {
			t.Errorf("N=%d: single B=N %.6f != crossbar %.6f", n, single, xb)
		}
	}
}

func TestBandwidthSingleValidation(t *testing.T) {
	if _, err := BandwidthSingle(nil, 0.5); err == nil {
		t.Error("no buses should error")
	}
	if _, err := BandwidthSingle([]int{2, -1}, 0.5); err == nil {
		t.Error("negative count should error")
	}
	if _, err := BandwidthSingle([]int{2, 2}, 1.5); err == nil {
		t.Error("bad X should error")
	}
	// A bus with zero modules contributes zero.
	got, err := BandwidthSingle([]int{0, 4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(0.5, 4)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("BandwidthSingle([0,4]) = %v, want %v", got, want)
	}
}

func TestBandwidthPartialGroupsTableVSpots(t *testing.T) {
	tests := []struct {
		n, b int
		r    float64
		hier bool
		want float64
	}{
		{8, 4, 1.0, true, 3.89},
		{8, 4, 1.0, false, 3.73},
		{16, 8, 1.0, true, 7.92},
		{16, 8, 1.0, false, 7.71},
		{32, 16, 1.0, true, 15.97},
		{32, 16, 1.0, false, 15.76},
		{8, 4, 0.5, true, 2.96},
		{8, 4, 0.5, false, 2.81},
		{16, 8, 0.5, true, 6.25},
		{32, 16, 0.5, true, 13.02},
		{32, 16, 0.5, false, 12.24},
	}
	for _, tt := range tests {
		x := hierX(t, tt.n, tt.r)
		if !tt.hier {
			x = unifX(t, tt.n, tt.r)
		}
		got, err := BandwidthPartialGroups(tt.n, tt.b, 2, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > paperTol {
			t.Errorf("Table V N=%d B=%d r=%v hier=%v: MBW = %.4f, want %.2f",
				tt.n, tt.b, tt.r, tt.hier, got, tt.want)
		}
	}
}

func TestBandwidthPartialGroupsG1EqualsFull(t *testing.T) {
	// The paper: "If g = 1, then (9) is equal to (4)."
	for _, n := range []int{8, 16} {
		for b := 1; b <= n; b *= 2 {
			x := hierX(t, n, 1.0)
			pg, err := BandwidthPartialGroups(n, b, 1, x)
			if err != nil {
				t.Fatal(err)
			}
			full, err := BandwidthFull(n, b, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pg-full) > 1e-12 {
				t.Errorf("N=%d B=%d: g=1 partial %.8f != full %.8f", n, b, pg, full)
			}
		}
	}
}

func TestBandwidthPartialGroupsValidation(t *testing.T) {
	for _, tt := range []struct{ m, b, g int }{
		{8, 4, 3}, {8, 4, 0}, {9, 4, 2}, {0, 4, 2}, {8, 0, 1},
	} {
		if _, err := BandwidthPartialGroups(tt.m, tt.b, tt.g, 0.5); err == nil {
			t.Errorf("PartialGroups(%d,%d,%d) should error", tt.m, tt.b, tt.g)
		}
	}
	if _, err := BandwidthPartialGroups(8, 4, 2, -1); err == nil {
		t.Error("bad X should error")
	}
}

func TestBandwidthKClassesTableVISpots(t *testing.T) {
	// Table VI: K = B classes of N/K modules each.
	sizes := func(n, k int) []int {
		ss := make([]int, k)
		for i := range ss {
			ss[i] = n / k
		}
		return ss
	}
	tests := []struct {
		n, b int
		r    float64
		hier bool
		want float64
	}{
		{8, 4, 1.0, true, 3.85},
		{8, 4, 1.0, false, 3.68},
		{16, 8, 1.0, true, 7.71},
		{16, 8, 1.0, false, 7.35},
		{32, 16, 1.0, true, 15.44},
		{32, 16, 1.0, false, 14.70},
		{8, 4, 0.5, true, 2.90},
		{8, 4, 0.5, false, 2.75},
		{16, 8, 0.5, true, 5.81},
		{16, 8, 0.5, false, 5.51},
		{32, 16, 0.5, true, 11.66},
		{32, 16, 0.5, false, 11.02},
	}
	for _, tt := range tests {
		x := hierX(t, tt.n, tt.r)
		if !tt.hier {
			x = unifX(t, tt.n, tt.r)
		}
		got, err := BandwidthKClasses(sizes(tt.n, tt.b), tt.b, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > paperTol {
			t.Errorf("Table VI N=%d B=K=%d r=%v hier=%v: MBW = %.4f, want %.2f",
				tt.n, tt.b, tt.r, tt.hier, got, tt.want)
		}
	}
}

func TestBandwidthKClassesHandDerived(t *testing.T) {
	// N=8, B=K=4, X from the paper workload at r=1: the Y_i values were
	// derived by hand while validating the model (see DESIGN.md):
	// Y_4 = 1−q0, Y_3 = 1−q0(q0+q1), Y_2 = Y_1 = 1−q0(q0+q1)·1.
	x := hierX(t, 8, 1.0)
	q0 := math.Pow(1-x, 2)
	q1 := 2 * x * (1 - x)
	wantY := []float64{
		1 - q0*(q0+q1), // bus 1
		1 - q0*(q0+q1), // bus 2
		1 - q0*(q0+q1), // bus 3
		1 - q0,         // bus 4
	}
	classes := []PrefixClass{{2, 1}, {2, 2}, {2, 3}, {2, 4}}
	ys, err := BusUtilizationPrefixClasses(classes, 4, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantY {
		if math.Abs(ys[i]-wantY[i]) > 1e-12 {
			t.Errorf("Y_%d = %.8f, want %.8f", i+1, ys[i], wantY[i])
		}
	}
}

func TestBandwidthKClassesKEquals1IsFull(t *testing.T) {
	// One class wired to all buses is the full connection.
	x := hierX(t, 8, 1.0)
	kc, err := BandwidthKClasses([]int{8}, 4, x)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BandwidthFull(8, 4, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kc-full) > 1e-9 {
		t.Errorf("K=1 classes %.8f != full %.8f", kc, full)
	}
}

func TestBandwidthKClassesValidation(t *testing.T) {
	if _, err := BandwidthKClasses(nil, 4, 0.5); err == nil {
		t.Error("no classes should error")
	}
	if _, err := BandwidthKClasses([]int{1, 1, 1, 1, 1}, 4, 0.5); err == nil {
		t.Error("K > B should error")
	}
	if _, err := BandwidthKClasses([]int{2, 2}, 4, 1.5); err == nil {
		t.Error("bad X should error")
	}
	if _, err := BandwidthPrefixClasses([]PrefixClass{{2, 5}}, 4, 0.5); err == nil {
		t.Error("prefix beyond B should error")
	}
	if _, err := BandwidthPrefixClasses([]PrefixClass{{2, 0}}, 4, 0.5); err == nil {
		t.Error("nonempty class with no buses should error")
	}
	if _, err := BandwidthPrefixClasses([]PrefixClass{{-1, 2}}, 4, 0.5); err == nil {
		t.Error("negative size should error")
	}
	if _, err := BandwidthPrefixClasses([]PrefixClass{{2, 2}}, 0, 0.5); err == nil {
		t.Error("B=0 should error")
	}
	// Empty class with zero prefix is fine.
	if _, err := BandwidthPrefixClasses([]PrefixClass{{0, 0}, {4, 2}}, 2, 0.5); err != nil {
		t.Errorf("empty class should be accepted: %v", err)
	}
}

func TestBandwidthIndependentGroupsSubsumesAll(t *testing.T) {
	x := hierX(t, 16, 1.0)
	// One group == full.
	g1, err := BandwidthIndependentGroups([]GroupSpec{{16, 8}}, x)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := BandwidthFull(16, 8, x)
	if math.Abs(g1-full) > 1e-12 {
		t.Errorf("one group %.8f != full %.8f", g1, full)
	}
	// B singleton groups == single connection.
	gs := make([]GroupSpec, 8)
	for i := range gs {
		gs[i] = GroupSpec{Modules: 2, Buses: 1}
	}
	gSingle, err := BandwidthIndependentGroups(gs, x)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := BandwidthSingle([]int{2, 2, 2, 2, 2, 2, 2, 2}, x)
	if math.Abs(gSingle-single) > 1e-12 {
		t.Errorf("singleton groups %.8f != single %.8f", gSingle, single)
	}
	// Two equal groups == partial g=2.
	g2, err := BandwidthIndependentGroups([]GroupSpec{{8, 4}, {8, 4}}, x)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := BandwidthPartialGroups(16, 8, 2, x)
	if math.Abs(g2-pg) > 1e-12 {
		t.Errorf("two groups %.8f != partial %.8f", g2, pg)
	}
}

func TestBandwidthIndependentGroupsEdge(t *testing.T) {
	if _, err := BandwidthIndependentGroups(nil, 0.5); err == nil {
		t.Error("no groups should error")
	}
	if _, err := BandwidthIndependentGroups([]GroupSpec{{-1, 2}}, 0.5); err == nil {
		t.Error("negative modules should error")
	}
	if _, err := BandwidthIndependentGroups([]GroupSpec{{2, 2}}, -1); err == nil {
		t.Error("bad X should error")
	}
	// Zero-module or zero-bus groups contribute nothing.
	got, err := BandwidthIndependentGroups([]GroupSpec{{0, 4}, {4, 0}, {4, 2}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BandwidthIndependentGroups([]GroupSpec{{4, 2}}, 0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("degenerate groups changed the result: %v vs %v", got, want)
	}
}

func TestBandwidthCrossbarPaperRow(t *testing.T) {
	for _, tc := range []struct {
		n    int
		r    float64
		want float64
	}{
		{8, 1.0, 5.98}, {12, 1.0, 8.86}, {16, 1.0, 11.78},
		{8, 0.5, 3.47}, {12, 0.5, 5.16}, {16, 0.5, 6.87},
	} {
		x := hierX(t, tc.n, tc.r)
		got, err := BandwidthCrossbar(tc.n, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > paperTol {
			t.Errorf("crossbar N=%d r=%v: %.4f, want %.2f", tc.n, tc.r, got, tc.want)
		}
	}
	if _, err := BandwidthCrossbar(0, 0.5); err == nil {
		t.Error("M=0 should error")
	}
	if _, err := BandwidthCrossbar(8, -0.5); err == nil {
		t.Error("bad X should error")
	}
}

func TestFullEqualsCrossbarAtBEqualsN(t *testing.T) {
	for _, n := range []int{8, 12, 16} {
		x := hierX(t, n, 1.0)
		full, _ := BandwidthFull(n, n, x)
		xb, _ := BandwidthCrossbar(n, x)
		if math.Abs(full-xb) > 1e-9 {
			t.Errorf("N=%d: full B=N %.8f != crossbar %.8f", n, full, xb)
		}
	}
}

func TestPerformanceCostRatio(t *testing.T) {
	got, err := PerformanceCostRatio(4.0, 80)
	if err != nil || math.Abs(got-0.05) > 1e-12 {
		t.Errorf("ratio = %v, %v; want 0.05", got, err)
	}
	if _, err := PerformanceCostRatio(4.0, 0); err == nil {
		t.Error("zero connections should error")
	}
	if _, err := PerformanceCostRatio(-1, 10); err == nil {
		t.Error("negative bandwidth should error")
	}
	if _, err := PerformanceCostRatio(math.NaN(), 10); err == nil {
		t.Error("NaN bandwidth should error")
	}
}

func TestOrderingFullGeqPartialGeqKClassesGeqSingle(t *testing.T) {
	// Section IV's qualitative ranking at matched N, B: full ≥ partial(g=2)
	// ≈ K classes ≥ single. Verify full ≥ partial ≥ single strictly and
	// K-classes within the partial/single band for the paper's
	// configurations.
	for _, n := range []int{8, 16, 32} {
		for _, r := range []float64{0.5, 1.0} {
			x := hierX(t, n, r)
			b := n / 2
			full, _ := BandwidthFull(n, b, x)
			pg, _ := BandwidthPartialGroups(n, b, 2, x)
			sizes := make([]int, b)
			counts := make([]int, b)
			for i := range sizes {
				sizes[i] = n / b
				counts[i] = n / b
			}
			kc, _ := BandwidthKClasses(sizes, b, x)
			single, _ := BandwidthSingle(counts, x)
			if !(full >= pg-1e-9) {
				t.Errorf("N=%d r=%v: full %.4f < partial %.4f", n, r, full, pg)
			}
			if !(pg >= single-1e-9) {
				t.Errorf("N=%d r=%v: partial %.4f < single %.4f", n, r, pg, single)
			}
			if !(full >= kc-1e-9) {
				t.Errorf("N=%d r=%v: full %.4f < K classes %.4f", n, r, full, kc)
			}
			if !(kc >= single-1e-9) {
				t.Errorf("N=%d r=%v: K classes %.4f < single %.4f", n, r, kc, single)
			}
		}
	}
}

func TestBandwidthPropertyBounds(t *testing.T) {
	// 0 ≤ MBW ≤ min(B, M·X) for every scheme at random X.
	f := func(mRaw, bRaw uint8, xRaw uint16) bool {
		m := (int(mRaw%8) + 1) * 2 // 2..16 even
		b := int(bRaw)%m + 1
		x := float64(xRaw) / 65535
		check := func(v float64, err error) bool {
			if err != nil {
				return false
			}
			return v >= -1e-12 && v <= math.Min(float64(b), float64(m)*x)+1e-9
		}
		if !check(BandwidthFull(m, b, x)) {
			return false
		}
		counts := make([]int, b)
		for j := 0; j < m; j++ {
			counts[j%b]++
		}
		if !check(BandwidthSingle(counts, x)) {
			return false
		}
		if m%b == 0 {
			sizes := make([]int, b)
			for i := range sizes {
				sizes[i] = m / b
			}
			if !check(BandwidthKClasses(sizes, b, x)) {
				return false
			}
		}
		if m%2 == 0 && b%2 == 0 {
			if !check(BandwidthPartialGroups(m, b, 2, x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthMonotoneInB(t *testing.T) {
	x := hierX(t, 16, 1.0)
	prev := 0.0
	for b := 1; b <= 16; b++ {
		v, err := BandwidthFull(16, b, x)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-12 {
			t.Fatalf("full bandwidth not monotone in B at B=%d: %v < %v", b, v, prev)
		}
		prev = v
	}
}

func TestKClassesMonotoneInX(t *testing.T) {
	sizes := []int{4, 4, 4, 4}
	prev := 0.0
	for xi := 0; xi <= 20; xi++ {
		x := float64(xi) / 20
		v, err := BandwidthKClasses(sizes, 4, x)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-12 {
			t.Fatalf("K-classes bandwidth not monotone in X at x=%v: %v < %v", x, v, prev)
		}
		prev = v
	}
}
