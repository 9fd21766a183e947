package analytic

import (
	"math"
	"testing"
)

func TestHeteroPrefixReducesToHomogeneous(t *testing.T) {
	const x = 0.746919
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x
		}
		return xs
	}
	hetero, err := BandwidthPrefixClassesHetero([]HeteroClass{
		{Xs: mk(2), PrefixLen: 1},
		{Xs: mk(2), PrefixLen: 2},
		{Xs: mk(2), PrefixLen: 3},
		{Xs: mk(2), PrefixLen: 4},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	homo, err := BandwidthKClasses([]int{2, 2, 2, 2}, 4, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hetero-homo) > 1e-12 {
		t.Errorf("hetero %v vs homogeneous %v", hetero, homo)
	}
}

func TestHeteroValidation(t *testing.T) {
	if _, err := BandwidthPrefixClassesHetero(nil, 2); err == nil {
		t.Error("no classes should error")
	}
	if _, err := BandwidthPrefixClassesHetero([]HeteroClass{{Xs: []float64{0.5}, PrefixLen: 3}}, 2); err == nil {
		t.Error("prefix beyond B should error")
	}
	if _, err := BandwidthPrefixClassesHetero([]HeteroClass{{Xs: []float64{0.5}, PrefixLen: 0}}, 2); err == nil {
		t.Error("modules without buses should error")
	}
	if _, err := BandwidthPrefixClassesHetero([]HeteroClass{{Xs: []float64{-1}, PrefixLen: 1}}, 2); err == nil {
		t.Error("bad probability should error")
	}
}

func TestHeteroMonotoneInModuleProbability(t *testing.T) {
	// Raising any module's request probability cannot lower bandwidth.
	base := []HeteroClass{
		{Xs: []float64{0.3, 0.4}, PrefixLen: 2},
		{Xs: []float64{0.5, 0.6}, PrefixLen: 3},
	}
	v0, err := BandwidthPrefixClassesHetero(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	bumped := []HeteroClass{
		{Xs: []float64{0.3, 0.9}, PrefixLen: 2},
		{Xs: []float64{0.5, 0.6}, PrefixLen: 3},
	}
	v1, err := BandwidthPrefixClassesHetero(bumped, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v1 < v0-1e-12 {
		t.Errorf("bandwidth dropped when a module got hotter: %v -> %v", v0, v1)
	}
}
