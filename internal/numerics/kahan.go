package numerics

// KahanSum accumulates float64 values with Neumaier-compensated summation,
// keeping long sweep accumulations (thousands of PMF terms) accurate to the
// last few ulps. The zero value is an empty sum ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add folds v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if abs(k.sum) >= abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var k KahanSum
	for _, v := range vs {
		k.Add(v)
	}
	return k.Value() / float64(len(vs))
}

// Variance returns the unbiased sample variance of vs, or 0 when fewer
// than two samples are supplied.
func Variance(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	var k KahanSum
	for _, v := range vs {
		d := v - m
		k.Add(d * d)
	}
	return k.Value() / float64(len(vs)-1)
}
