package numerics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumCatastrophicCancellation(t *testing.T) {
	// 1 + 1e100 - 1e100 loses the 1 under naive summation.
	var k KahanSum
	k.Add(1)
	k.Add(1e100)
	k.Add(-1e100)
	if got := k.Value(); got != 1 {
		t.Errorf("compensated sum = %v, want 1", got)
	}
}

func TestKahanSumManySmall(t *testing.T) {
	var k KahanSum
	const n = 1_000_000
	for i := 0; i < n; i++ {
		k.Add(0.1)
	}
	if got, want := k.Value(), float64(n)*0.1; math.Abs(got-want) > 1e-6 {
		t.Errorf("sum of %d × 0.1 = %v, want %v", n, got, want)
	}
}

func TestMeanAndVariance(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
	// Sample variance of {2,4,6} is 4.
	if got := Variance([]float64{2, 4, 6}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
}

func TestVarianceShiftInvariance(t *testing.T) {
	f := func(raw []uint16, shiftRaw uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		shift := float64(shiftRaw)
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v)
			b[i] = float64(v) + shift
		}
		va, vb := Variance(a), Variance(b)
		return math.Abs(va-vb) <= 1e-6*(1+math.Abs(va))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
