package analytic

import (
	"fmt"

	"multibus/internal/numerics"
)

// Heterogeneous bandwidth models: the paper's equations assume every
// module is requested with the same probability X, which holds for its
// symmetric workloads. Hot-spot traffic and popularity-aware module
// placement (the paper's §II principle that "memory modules which are
// more frequently referenced are connected to more buses") need
// per-module probabilities; this variant replaces the binomial counts
// with Poisson-binomial ones and otherwise follows the same derivation.

// HeteroClass is a nested-prefix class with per-module request
// probabilities.
type HeteroClass struct {
	Xs        []float64
	PrefixLen int
}

// BandwidthPrefixClassesHetero evaluates the generalized equation (11)
// with per-module probabilities: bus i idles only if every class c with
// L_c ≥ i has at most L_c − i requested modules, where the class counts
// are Poisson-binomial,
//
//	Y_i = 1 − Π_{c: L_c ≥ i} P[S_c ≤ L_c − i].
func BandwidthPrefixClassesHetero(classes []HeteroClass, b int) (float64, error) {
	if b < 1 {
		return 0, fmt.Errorf("%w: B=%d", ErrBadStructure, b)
	}
	if len(classes) == 0 {
		return 0, fmt.Errorf("%w: no classes", ErrBadStructure)
	}
	// Precompute each class's success-count PMF once.
	pmfs := make([][]float64, len(classes))
	for c, cl := range classes {
		if cl.PrefixLen < 0 || cl.PrefixLen > b {
			return 0, fmt.Errorf("%w: class %d prefix %d (B=%d)", ErrBadStructure, c, cl.PrefixLen, b)
		}
		if len(cl.Xs) > 0 && cl.PrefixLen == 0 {
			return 0, fmt.Errorf("%w: class %d has modules but no buses", ErrBadStructure, c)
		}
		pmf, err := numerics.PoissonBinomialPMF(cl.Xs)
		if err != nil {
			return 0, fmt.Errorf("class %d: %w", c, err)
		}
		pmfs[c] = pmf
	}
	cdf := func(c, k int) float64 {
		if k < 0 {
			return 0
		}
		pmf := pmfs[c]
		if k >= len(pmf)-1 {
			return 1
		}
		v := 0.0
		for i := 0; i <= k; i++ {
			v += pmf[i]
		}
		if v > 1 {
			return 1
		}
		return v
	}
	var total numerics.KahanSum
	for i := 1; i <= b; i++ {
		idle := 1.0
		for c, cl := range classes {
			if cl.PrefixLen < i || len(cl.Xs) == 0 {
				continue
			}
			idle *= cdf(c, cl.PrefixLen-i)
		}
		total.Add(1 - idle)
	}
	return total.Value(), nil
}
