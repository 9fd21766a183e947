package numerics

import (
	"fmt"
	"math"
)

// PoissonBinomialPMF returns the distribution of the number of successes
// among independent Bernoulli trials with the given (possibly distinct)
// probabilities: out[k] = P[exactly k successes]. Computed by the
// standard O(n²) convolution DP, exact to floating-point rounding.
//
// The homogeneous case reduces to the binomial PMF; heterogeneous
// probabilities arise in bandwidth analysis when modules have unequal
// request probabilities (hot-spot traffic, popularity-aware placement).
func PoissonBinomialPMF(probs []float64) ([]float64, error) {
	out := make([]float64, len(probs)+1)
	out[0] = 1
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("%w: probs[%d]=%v", ErrInvalidProbability, i, p)
		}
		// Fold trial i in, descending so out[k-1] is still the old value.
		for k := i + 1; k >= 1; k-- {
			out[k] = out[k]*(1-p) + out[k-1]*p
		}
		out[0] *= 1 - p
	}
	return out, nil
}
