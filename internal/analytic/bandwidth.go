// Package analytic implements the closed-form effective memory bandwidth
// models of Chen & Sheu for N×M×B multiple bus networks under the
// hierarchical requesting model (paper equations (2)–(12)), together with
// two generalizations that subsume all four connection schemes:
//
//   - independent groups: disjoint sets of modules sharing disjoint sets
//     of buses (full = 1 group, single = B groups of 1 bus, Lang et al.'s
//     partial bus networks = g groups), evaluated with the exact
//     E[min(Binomial(M_q, X), B_q)] formula;
//   - nested prefix classes: module classes wired to nested prefixes of
//     the bus order (the paper's K-class networks, including versions
//     degraded by bus failures), evaluated with the generalized
//     equation (11).
//
// All bandwidths are in units of accepted memory requests per memory
// cycle. X is the per-module request probability from the hrm package.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"multibus/internal/numerics"
)

// Errors returned by the bandwidth formulas.
var (
	ErrBadX           = errors.New("analytic: X outside [0, 1]")
	ErrBadStructure   = errors.New("analytic: invalid structural parameters")
	ErrNoClosedForm   = errors.New("analytic: topology admits no closed form; use the simulator")
	ErrSchemeMismatch = errors.New("analytic: formula does not apply to this scheme")
)

func checkX(x float64) error {
	if x < 0 || x > 1 || math.IsNaN(x) {
		return fmt.Errorf("%w: %v", ErrBadX, x)
	}
	return nil
}

// BandwidthFull evaluates equation (4): the memory bandwidth of an
// m-module network with full bus–memory connection over b buses,
//
//	MBW_f = m·X − Σ_{i=b+1}^{m} (i−b)·C(m,i)·X^i·(1−X)^{m−i}.
//
// The paper writes m = N because its numerical section sets M = N; the
// formula depends only on the number of memory-request arbiters, which is
// the number of modules.
func BandwidthFull(m, b int, x float64) (float64, error) {
	return pooledEval(func(e *Evaluator) (float64, error) { return e.BandwidthFull(m, b, x) })
}

// BandwidthSingle evaluates equation (6): the memory bandwidth of a
// network with single bus–memory connection where bus i carries
// moduleCounts[i] modules,
//
//	MBW_s = Σ_i Y_i,  Y_i = 1 − (1−X)^{M_i}.
func BandwidthSingle(moduleCounts []int, x float64) (float64, error) {
	if err := checkX(x); err != nil {
		return 0, err
	}
	if len(moduleCounts) == 0 {
		return 0, fmt.Errorf("%w: no buses", ErrBadStructure)
	}
	var sum numerics.KahanSum
	for i, mi := range moduleCounts {
		if mi < 0 {
			return 0, fmt.Errorf("%w: bus %d carries %d modules", ErrBadStructure, i, mi)
		}
		sum.Add(1 - numerics.Pow1mXN(x, mi))
	}
	return sum.Value(), nil
}

// BusUtilizationSingle returns the per-bus service probabilities Y_i of
// equation (5) for a single-connection network.
func BusUtilizationSingle(moduleCounts []int, x float64) ([]float64, error) {
	if err := checkX(x); err != nil {
		return nil, err
	}
	ys := make([]float64, len(moduleCounts))
	for i, mi := range moduleCounts {
		if mi < 0 {
			return nil, fmt.Errorf("%w: bus %d carries %d modules", ErrBadStructure, i, mi)
		}
		ys[i] = 1 - numerics.Pow1mXN(x, mi)
	}
	return ys, nil
}

// BandwidthPartialGroups evaluates equation (9): the memory bandwidth of
// Lang et al.'s partial bus network with m modules and b buses split into
// g equal groups,
//
//	MBW_p = m·X − Σ_{i=b/g+1}^{m/g} (g·i−b)·C(m/g,i)·X^i·(1−X)^{m/g−i}
//	      = g · E[min(Binomial(m/g, X), b/g)].
//
// g must divide both m and b; g = 1 reduces to equation (4), as the paper
// notes.
func BandwidthPartialGroups(m, b, g int, x float64) (float64, error) {
	return pooledEval(func(e *Evaluator) (float64, error) { return e.BandwidthPartialGroups(m, b, g, x) })
}

// GroupSpec describes one independent subnetwork: modules sharing buses
// that no other group touches.
type GroupSpec struct {
	Modules int // memory modules in the group
	Buses   int // buses serving exactly these modules
}

// BandwidthIndependentGroups evaluates the exact bandwidth of a network
// that decomposes into independent (bus- and module-disjoint) groups:
//
//	MBW = Σ_q E[min(Binomial(M_q, X), B_q)].
//
// This one formula subsumes the paper's equations (4) (one group),
// (6) (B single-bus groups), and (9) (g equal groups), and additionally
// covers unequal group sizes, which arise when bus failures degrade a
// partial bus network.
func BandwidthIndependentGroups(groups []GroupSpec, x float64) (float64, error) {
	return pooledEval(func(e *Evaluator) (float64, error) { return e.BandwidthIndependentGroups(groups, x) })
}

// PrefixClass describes one class of a nested-prefix network: Size
// modules each wired to the first PrefixLen buses of the bus order.
type PrefixClass struct {
	Size      int // number of modules in the class (M_j)
	PrefixLen int // number of buses the class is wired to, from bus 1
}

// BandwidthPrefixClasses evaluates the generalized equation (11)/(12) for
// a network of b buses whose module classes are wired to nested prefixes
// of the bus order. Under the two-step bus-assignment procedure
// (Lang–Valero–Fiol, the paper §III-D), bus i goes idle only if every
// class c with PrefixLen_c ≥ i has at most PrefixLen_c − i requested
// modules, so
//
//	Y_i = 1 − Π_{c: L_c ≥ i} P[Binomial(M_c, X) ≤ L_c − i]
//	MBW = Σ_{i=1}^{b} Y_i.
//
// The paper's K-class network is the special case L_j = j + B − K; bus
// failures in a K-class network yield general prefix lengths, which this
// function handles directly.
func BandwidthPrefixClasses(classes []PrefixClass, b int, x float64) (float64, error) {
	return pooledEval(func(e *Evaluator) (float64, error) { return e.BandwidthPrefixClasses(classes, b, x) })
}

// validatePrefixClasses checks the structural arguments of equation (11).
func validatePrefixClasses(classes []PrefixClass, b int, x float64) error {
	if err := checkX(x); err != nil {
		return err
	}
	if b < 1 {
		return fmt.Errorf("%w: B=%d", ErrBadStructure, b)
	}
	if len(classes) == 0 {
		return fmt.Errorf("%w: no classes", ErrBadStructure)
	}
	for c, cl := range classes {
		if cl.Size < 0 {
			return fmt.Errorf("%w: class %d has size %d", ErrBadStructure, c, cl.Size)
		}
		if cl.PrefixLen < 0 || cl.PrefixLen > b {
			return fmt.Errorf("%w: class %d has prefix %d (B=%d)", ErrBadStructure, c, cl.PrefixLen, b)
		}
		if cl.Size > 0 && cl.PrefixLen == 0 {
			return fmt.Errorf("%w: class %d has modules but no buses", ErrBadStructure, c)
		}
	}
	return nil
}

// BusUtilizationPrefixClasses returns the per-bus request probabilities
// Y_1 … Y_b of the generalized equation (11). ys[i−1] is the probability
// bus i carries a transfer in a cycle.
func BusUtilizationPrefixClasses(classes []PrefixClass, b int, x float64) ([]float64, error) {
	if err := validatePrefixClasses(classes, b, x); err != nil {
		return nil, err
	}
	ys := make([]float64, b)
	e := evalPool.Get().(*Evaluator)
	defer evalPool.Put(e)
	if err := e.prefixIdle(classes, x, ys); err != nil {
		return nil, err
	}
	for i, q := range ys {
		ys[i] = 1 - q
	}
	return ys, nil
}

// BandwidthKClasses evaluates the paper's equation (12): the memory
// bandwidth of a partial bus network with K classes, where classSizes[j−1]
// is M_j and class C_j is wired to buses 1 … j+B−K.
func BandwidthKClasses(classSizes []int, b int, x float64) (float64, error) {
	return pooledEval(func(e *Evaluator) (float64, error) { return e.BandwidthKClasses(classSizes, b, x) })
}

// BandwidthCrossbar returns the bandwidth of an m-module crossbar: with a
// dedicated path per module, every requested module is served, so
// MBW = m·X. The paper's tables list this as the "N×N crossbar" row.
func BandwidthCrossbar(m int, x float64) (float64, error) {
	if err := checkX(x); err != nil {
		return 0, err
	}
	if m < 1 {
		return 0, fmt.Errorf("%w: M=%d", ErrBadStructure, m)
	}
	return float64(m) * x, nil
}

// PerformanceCostRatio returns bandwidth per connection, the
// cost-effectiveness figure the paper uses in §IV to rank the schemes.
func PerformanceCostRatio(mbw float64, connections int) (float64, error) {
	if connections <= 0 {
		return 0, fmt.Errorf("%w: %d connections", ErrBadStructure, connections)
	}
	if mbw < 0 || math.IsNaN(mbw) {
		return 0, fmt.Errorf("%w: bandwidth %v", ErrBadStructure, mbw)
	}
	return mbw / float64(connections), nil
}
