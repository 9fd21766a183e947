package numerics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPoissonBinomialHomogeneousMatchesBinomial(t *testing.T) {
	for _, n := range []int{1, 4, 12} {
		for _, p := range []float64{0, 0.25, 0.6564, 1} {
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = p
			}
			pmf, err := PoissonBinomialPMF(probs)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= n; k++ {
				want, err := BinomialPMF(n, k, p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(pmf[k]-want) > 1e-12 {
					t.Errorf("n=%d p=%v k=%d: %v vs binomial %v", n, p, k, pmf[k], want)
				}
			}
		}
	}
}

func TestPoissonBinomialHandComputed(t *testing.T) {
	// Trials 0.5 and 0.2: P0 = 0.4, P1 = 0.5·0.8 + 0.5·0.2 = 0.5, P2 = 0.1.
	pmf, err := PoissonBinomialPMF([]float64{0.5, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0.5, 0.1}
	for k, w := range want {
		if math.Abs(pmf[k]-w) > 1e-12 {
			t.Errorf("P[%d] = %v, want %v", k, pmf[k], w)
		}
	}
	// Empty trial list: the count is surely 0.
	pmf, err = PoissonBinomialPMF(nil)
	if err != nil || len(pmf) != 1 || pmf[0] != 1 {
		t.Errorf("empty trials: %v, %v", pmf, err)
	}
}

func TestPoissonBinomialValidation(t *testing.T) {
	if _, err := PoissonBinomialPMF([]float64{0.5, -0.1}); err == nil {
		t.Error("negative probability should error")
	}
	if _, err := PoissonBinomialPMF([]float64{1.5}); err == nil {
		t.Error("probability > 1 should error")
	}
	if _, err := PoissonBinomialPMF([]float64{math.NaN()}); err == nil {
		t.Error("NaN should error")
	}
}

func TestPoissonBinomialProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		probs := make([]float64, len(raw))
		mean := 0.0
		for i, v := range raw {
			probs[i] = float64(v) / 65535
			mean += probs[i]
		}
		pmf, err := PoissonBinomialPMF(probs)
		if err != nil {
			return false
		}
		sum, pmfMean := 0.0, 0.0
		for k, p := range pmf {
			if p < -1e-15 {
				return false
			}
			sum += p
			pmfMean += float64(k) * p
		}
		return math.Abs(sum-1) <= 1e-9 && math.Abs(pmfMean-mean) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
