package workload

import (
	"math"
	"sort"
	"testing"
)

// FuzzGuideSample checks the guide-table inverse-CDF lookup against the
// binary search it replaced: for any destination distribution (one
// weight per byte) and any u ∈ [0, 1), sample returns the index
// sort.SearchFloat64s finds. Every input also checks u on each CDF step
// and on the floats either side of it, where a lookup is most likely to
// land one module off.
func FuzzGuideSample(f *testing.F) {
	below1 := math.Nextafter(1, 0) // 1 − 2⁻⁵³
	f.Add([]byte{1, 1, 1, 1}, 0.25)
	f.Add([]byte{1, 1, 1, 1}, 0.75)
	f.Add([]byte{1, 1, 1, 1, 1, 1}, 0.5) // K = 24: u·K rounds up onto a slot boundary
	f.Add([]byte{0, 0, 5, 3, 0, 0}, 0.0)
	f.Add([]byte{0, 0, 5, 3, 0, 0}, 0.625)
	f.Add([]byte{0, 0, 5, 3, 0, 0}, below1)
	f.Add([]byte{0, 7, 0, 0, 9, 0, 1, 0}, 7.0/17)
	f.Add([]byte{255}, below1)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 254}, 1.0/255)
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, below1)
	f.Fuzz(func(t *testing.T, weights []byte, u float64) {
		if len(weights) == 0 || len(weights) > 1024 {
			t.Skip()
		}
		total := 0
		for _, w := range weights {
			total += int(w)
		}
		if total == 0 {
			t.Skip()
		}
		dist := make([]float64, len(weights))
		for j, w := range weights {
			dist[j] = float64(w) / float64(total)
		}
		g, err := newBernoulli("fuzz", 1, [][]float64{dist}, len(dist))
		if err != nil {
			t.Fatal(err)
		}
		cdf := g.cdf[0]
		check := func(u float64) {
			if !(u >= 0 && u < 1) {
				return
			}
			if got, want := g.sample(0, u), sort.SearchFloat64s(cdf, u); got != want {
				t.Fatalf("weights %v u=%v: guide lookup %d, binary search %d", weights, u, got, want)
			}
		}
		check(u)
		for _, c := range cdf {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, 1))
		}
	})
}

// TestGuideSlotInRange pins the bound sample relies on instead of a
// clamp: the largest Float64 draw lands in the last guide slot, never
// one past it, for every module count up to 2²⁰.
func TestGuideSlotInRange(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	for m := 1; m <= 1<<20; m++ {
		k := guideSlots(m)
		if slot := int(below1 * float64(k)); slot != k-1 {
			t.Fatalf("M=%d: u=1−2⁻⁵³ maps to slot %d of %d", m, slot, k)
		}
	}
}
