package analytic

import (
	"fmt"
	"sync"

	"multibus/internal/numerics"
	"multibus/internal/topology"
)

// Evaluator is reusable scratch for the closed-form bandwidth formulas.
// Every formula in this package reduces to functionals of Binomial(n, X)
// rows — E[min(·, b)] for the group decompositions, CDF products for the
// prefix-class networks — and the per-call package functions used to
// rebuild each row from scratch on every invocation. An Evaluator keeps
// a small cache of numerics.BinomialRow scratch keyed by (n, p): asking
// for the same distribution again (every capacity b of a bus-count
// sweep, every bus position of a K-class network, every group of an
// even partition) is a lookup instead of an O(n) recomputation, and
// steady-state reuse performs no allocation at all (pinned by
// TestEvaluatorSteadyStateDoesNotAllocate).
//
// The methods compute identical values to the package-level functions
// (which now delegate to a pooled Evaluator); holding an explicit
// Evaluator only makes the reuse deterministic — one table generation,
// one sweep worker, one request handler. An Evaluator is not safe for
// concurrent use; give each goroutine its own or use the package
// functions.
type Evaluator struct {
	rows []numerics.BinomialRow
	next int // round-robin eviction cursor over rows

	classes []PrefixClass // scratch for BandwidthKClasses
	idle    []float64     // scratch for BandwidthPrefixClasses
}

// evaluatorMaxRows bounds the per-Evaluator row cache. A full-connection
// sweep needs one row per (N, workload); a K-class table needs one per
// distinct class size. 32 covers every shape in the repo's tables and
// sweeps with room to spare while keeping the linear cache scan trivial.
const evaluatorMaxRows = 32

// NewEvaluator returns an empty Evaluator. The zero value is also ready
// to use.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// row returns the cached row for Binomial(n, p), computing and caching
// it on first use. p is matched on its exact float64 bit pattern — the
// callers key rows on the request probability X, which reaches every
// formula of one evaluation as the same float64.
func (e *Evaluator) row(n int, p float64) (*numerics.BinomialRow, error) {
	for i := range e.rows {
		if e.rows[i].Matches(n, p) {
			return &e.rows[i], nil
		}
	}
	if len(e.rows) < evaluatorMaxRows {
		e.rows = append(e.rows, numerics.BinomialRow{})
		r := &e.rows[len(e.rows)-1]
		if err := r.Reset(n, p); err != nil {
			e.rows = e.rows[:len(e.rows)-1]
			return nil, err
		}
		return r, nil
	}
	// Cache full: recycle the next slot round-robin. The access patterns
	// here are tiny working sets swept repeatedly, where round-robin
	// reuse of the backing arrays beats tracking recency.
	r := &e.rows[e.next]
	e.next = (e.next + 1) % evaluatorMaxRows
	if err := r.Reset(n, p); err != nil {
		return nil, err
	}
	return r, nil
}

// expectedMin returns E[min(Binomial(n, x), b)] from the cached row.
func (e *Evaluator) expectedMin(n, b int, x float64) (float64, error) {
	r, err := e.row(n, x)
	if err != nil {
		return 0, err
	}
	return r.ExpectedMin(b), nil
}

// BandwidthFull is Evaluator-backed BandwidthFull: paper equation (4).
func (e *Evaluator) BandwidthFull(m, b int, x float64) (float64, error) {
	if err := checkX(x); err != nil {
		return 0, err
	}
	if m < 1 || b < 1 {
		return 0, fmt.Errorf("%w: M=%d B=%d", ErrBadStructure, m, b)
	}
	return e.expectedMin(m, b, x)
}

// BandwidthPartialGroups is Evaluator-backed BandwidthPartialGroups:
// paper equation (9).
func (e *Evaluator) BandwidthPartialGroups(m, b, g int, x float64) (float64, error) {
	if err := checkX(x); err != nil {
		return 0, err
	}
	if m < 1 || b < 1 || g < 1 || m%g != 0 || b%g != 0 {
		return 0, fmt.Errorf("%w: M=%d B=%d g=%d (g must divide M and B)", ErrBadStructure, m, b, g)
	}
	per, err := e.expectedMin(m/g, b/g, x)
	if err != nil {
		return 0, err
	}
	return float64(g) * per, nil
}

// BandwidthIndependentGroups is Evaluator-backed
// BandwidthIndependentGroups; equal-sized groups (the common case: every
// pristine scheme) share one row.
func (e *Evaluator) BandwidthIndependentGroups(groups []GroupSpec, x float64) (float64, error) {
	if err := checkX(x); err != nil {
		return 0, err
	}
	if len(groups) == 0 {
		return 0, fmt.Errorf("%w: no groups", ErrBadStructure)
	}
	var sum numerics.KahanSum
	for q, g := range groups {
		if g.Modules < 0 || g.Buses < 0 {
			return 0, fmt.Errorf("%w: group %d has M=%d B=%d", ErrBadStructure, q, g.Modules, g.Buses)
		}
		if g.Modules == 0 || g.Buses == 0 {
			continue // nothing to serve, or no way to serve it
		}
		per, err := e.expectedMin(g.Modules, g.Buses, x)
		if err != nil {
			return 0, err
		}
		sum.Add(per)
	}
	return sum.Value(), nil
}

// BandwidthSingle is Evaluator-backed BandwidthSingle: paper equation
// (6). It needs no binomial rows (each Y_i is a closed form); the method
// exists so one Evaluator serves every scheme.
func (e *Evaluator) BandwidthSingle(moduleCounts []int, x float64) (float64, error) {
	return BandwidthSingle(moduleCounts, x)
}

// BandwidthSingleEven evaluates equation (6) for the even case of b
// buses each carrying per modules, without materializing the count
// slice: MBW = Σ_{i=1}^{b} (1 − (1−X)^{per}), accumulated exactly like
// BandwidthSingle for bit-identical results.
func (e *Evaluator) BandwidthSingleEven(per, b int, x float64) (float64, error) {
	if err := checkX(x); err != nil {
		return 0, err
	}
	if b < 1 {
		return 0, fmt.Errorf("%w: no buses", ErrBadStructure)
	}
	if per < 0 {
		return 0, fmt.Errorf("%w: bus carries %d modules", ErrBadStructure, per)
	}
	y := 1 - numerics.Pow1mXN(x, per)
	var sum numerics.KahanSum
	for i := 0; i < b; i++ {
		sum.Add(y)
	}
	return sum.Value(), nil
}

// BandwidthPrefixClasses is Evaluator-backed BandwidthPrefixClasses: the
// generalized equation (11)/(12). This is where row reuse pays most —
// the per-call path evaluated one full O(Size) CDF per (bus, class)
// pair, an O(B·K·M) cascade; with cached rows each class's row is built
// once and every CDF factor is an O(1) lookup.
func (e *Evaluator) BandwidthPrefixClasses(classes []PrefixClass, b int, x float64) (float64, error) {
	if err := validatePrefixClasses(classes, b, x); err != nil {
		return 0, err
	}
	if cap(e.idle) < b {
		e.idle = make([]float64, b)
	}
	idle := e.idle[:b]
	if err := e.prefixIdle(classes, x, idle); err != nil {
		return 0, err
	}
	var sum numerics.KahanSum
	for _, q := range idle {
		sum.Add(1 - q)
	}
	return sum.Value(), nil
}

// prefixIdle fills idle[i−1] with the probability that bus i (1-based)
// stays idle under equation (11): the product over classes c with
// L_c ≥ i of P[Binomial(M_c, X) ≤ L_c − i], so Y_i = 1 − idle[i−1].
// The loop runs class-outer: each class's row is looked up once rather
// than once per bus, which keeps a K = B network at K lookups instead of
// B·K scans of the row cache. Every bus still multiplies its factors in
// class order, so each product is bit-identical to the bus-outer form.
// At most one row pointer is held, and it is dropped before the next
// lookup, so cache eviction can never invalidate it.
func (e *Evaluator) prefixIdle(classes []PrefixClass, x float64, idle []float64) error {
	for i := range idle {
		idle[i] = 1
	}
	var r *numerics.BinomialRow
	for _, cl := range classes {
		if cl.Size == 0 {
			continue
		}
		if r == nil || r.N() != cl.Size {
			var err error
			if r, err = e.row(cl.Size, x); err != nil {
				return err
			}
		}
		for i := 1; i <= cl.PrefixLen; i++ {
			idle[i-1] *= r.CDF(cl.PrefixLen - i)
		}
	}
	return nil
}

// BandwidthKClasses is Evaluator-backed BandwidthKClasses: paper
// equation (12), reusing the evaluator's class scratch instead of
// allocating the prefix-class slice per call.
func (e *Evaluator) BandwidthKClasses(classSizes []int, b int, x float64) (float64, error) {
	k := len(classSizes)
	if k == 0 || k > b {
		return 0, fmt.Errorf("%w: K=%d B=%d", ErrBadStructure, k, b)
	}
	if cap(e.classes) < k {
		e.classes = make([]PrefixClass, k)
	}
	classes := e.classes[:k]
	for j := 1; j <= k; j++ {
		classes[j-1] = PrefixClass{Size: classSizes[j-1], PrefixLen: j + b - k}
	}
	return e.BandwidthPrefixClasses(classes, b, x)
}

// BandwidthCrossbar is Evaluator-backed BandwidthCrossbar (trivially
// row-free; provided for API symmetry).
func (e *Evaluator) BandwidthCrossbar(m int, x float64) (float64, error) {
	return BandwidthCrossbar(m, x)
}

// BandwidthStructure evaluates a pre-classified topology: the Structure
// from Classify plus the topology's bus count. Sweeps classify each
// wiring once during grid enumeration and then evaluate every rate and
// model against the cached structure, skipping the O(M·B) wiring walk
// per point.
func (e *Evaluator) BandwidthStructure(s *Structure, buses int, x float64) (float64, error) {
	if s == nil {
		return 0, fmt.Errorf("%w: nil structure", ErrBadStructure)
	}
	switch s.Kind {
	case StructureIndependentGroups:
		return e.BandwidthIndependentGroups(s.Groups, x)
	case StructurePrefixClasses:
		return e.BandwidthPrefixClasses(s.Classes, buses, x)
	default:
		return 0, fmt.Errorf("%w: unknown structure %v", ErrNoClosedForm, s.Kind)
	}
}

// Bandwidth is Evaluator-backed Bandwidth: classify the topology, then
// dispatch. Callers evaluating one topology many times should classify
// once and use BandwidthStructure.
func (e *Evaluator) Bandwidth(nw *topology.Network, x float64) (float64, error) {
	s, err := Classify(nw)
	if err != nil {
		return 0, err
	}
	return e.BandwidthStructure(s, nw.B(), x)
}

// evalPool recycles Evaluators behind the package-level functions, so
// callers that never hold an explicit Evaluator (the façade, the HTTP
// service, the extension tables) still reuse rows across calls with
// zero steady-state allocation. sync.Pool is per-P under the hood, which
// makes this a per-worker cache for free in pooled sweeps.
var evalPool = sync.Pool{New: func() any { return NewEvaluator() }}

// pooledEval runs f with a pooled Evaluator.
func pooledEval(f func(e *Evaluator) (float64, error)) (float64, error) {
	e := evalPool.Get().(*Evaluator)
	v, err := f(e)
	evalPool.Put(e)
	return v, err
}
