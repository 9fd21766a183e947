// Package sweep runs parameter sweeps over the multiple bus design
// space: network size N, bus count B, request rate r, connection scheme,
// and request model, evaluating the analytic bandwidth models and
// optionally cross-checking each point with the Monte-Carlo simulator.
// It powers the mbsweep command, the mbserve /v1/sweep and /v1/batch
// endpoints, and the ablation benchmarks.
//
// The grid axes are scenario templates (internal/scenario): each
// (scheme, model, N, B, r) tuple is stamped into one Scenario and built
// through the canonical layer, so sweeps share validation, defaults, and
// cache keys with the single-point CLI and HTTP paths. Grid points that
// violate a structural constraint (groups or classes not dividing the
// module count, hierarchical workloads that do not split) are skipped
// and reported in Result.Skipped — never dropped silently.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"multibus/internal/analytic"
	"multibus/internal/cache"
	"multibus/internal/compute"
	"multibus/internal/scenario"
)

// ErrBadSpec is returned for invalid sweep specifications.
var ErrBadSpec = errors.New("sweep: invalid specification")

// Spec describes the sweep grid.
type Spec struct {
	Ns []int
	Bs []int
	Rs []float64
	// Schemes are network templates: Scheme (plus Groups, Classes, or
	// ClassSizes where relevant) is taken from the template while N, M,
	// and B are filled per grid point. Build them by hand or parse sweep
	// scheme names with scenario.SweepScheme ("full", "partial-g4",
	// "kclasses", "crossbar", ...).
	Schemes []scenario.Network
	// Models are the request-model axis. Empty means one default model:
	// the paper's hierarchical workload when Hierarchical is set, the
	// uniform model otherwise.
	Models []scenario.Model
	// Hierarchical selects the default model when Models is empty (the
	// paper's two-level 0.6/0.3/0.1 workload, clusters per the shared
	// scenario.HierClusters rule).
	Hierarchical bool
	// WithSim additionally runs the simulator at each point.
	WithSim   bool
	SimCycles int   // default 20000
	Seed      int64 // default 1 (normalized by sim.EffectiveSeed)
	// Workers bounds how many grid points are evaluated concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces sequential evaluation.
	// The result is byte-identical regardless of Workers: every point
	// is seeded independently and reassembled in grid order.
	Workers int
	// Context, when non-nil, cancels the sweep: it is checked before
	// each grid point starts (and, for simulated points, between
	// simulation batches), so Run returns the context error within one
	// point of cancellation. Nil means context.Background().
	Context context.Context
	// Memo, when non-nil, memoizes grid-point evaluations, keyed by the
	// point's scenario (scheme axis, structural fingerprints, rate, and
	// simulator parameters) via scenario.Built.SweepPointKey.
	// Overlapping grids across Run calls sharing one cache hit it
	// instead of recomputing; results are deterministic, so a hit is
	// byte-identical to a recompute. Concurrent identical points
	// compute once via singleflight.
	Memo *cache.Cache
	// OnPlan, when non-nil, is called exactly once after grid
	// enumeration succeeds, before any point is evaluated, with the
	// number of points the run will attempt and every skipped
	// combination. Job-style callers use it to replace the
	// EstimatePoints upper bound with the true total.
	OnPlan func(points int, skipped []Skip)
	// OnPoint, when non-nil, is called as each grid point completes,
	// from worker goroutines in completion order (not grid order), with
	// the point's deterministic grid index. Implementations must be
	// safe for concurrent use. The streaming job layer feeds its
	// reordering publisher from this hook.
	OnPoint func(index int, pt Point)
	// Backend evaluates grid points. Nil means the in-process
	// compute.Local backend — the pre-cluster behavior. A backend that
	// also implements compute.BatchSweeper (the cluster coordinator)
	// receives the whole enumerated grid at once and partitions it;
	// results are byte-identical either way.
	Backend compute.Backend
}

// EstimatePoints returns the grid cardinality a Run of this Spec will
// attempt: the product of the axis lengths, with an empty Models axis
// counting as the one default model Run substitutes. The admission
// layer weighs sweep requests by it before any evaluation starts, so it
// deliberately counts infeasible combinations too (skips are only
// discovered during the run) — an upper bound, cheap and allocation-free.
// The product saturates at math.MaxInt instead of wrapping, so a grid
// too large to count still compares as too large.
func (s Spec) EstimatePoints() int {
	models := len(s.Models)
	if models == 0 {
		models = 1
	}
	points := 1
	for _, n := range [...]int{len(s.Ns), len(s.Bs), len(s.Rs), len(s.Schemes), models} {
		if n == 0 {
			return 0
		}
		if points > math.MaxInt/n {
			points = math.MaxInt
		} else {
			points *= n
		}
	}
	return points
}

// Point is one evaluated configuration. Scheme and Model are the axis
// names (scenario.Network.AxisName / scenario.Model.AxisName). It is
// the compute layer's wire type: the sweep result a peer computed
// decodes into exactly this shape, which is what keeps partitioned and
// single-instance sweeps byte-identical.
type Point = compute.Point

// Skip records one (scheme, model, N, B) grid combination that was not
// evaluated, and why. Rates are not enumerated: a structural skip
// applies to every r.
type Skip struct {
	Scheme string
	Model  string
	N, B   int
	Reason string
}

// Result is a completed sweep: the evaluated points in deterministic
// grid order plus every skipped combination.
type Result struct {
	Points  []Point
	Skipped []Skip
}

// Enumerated grid points are compute.PointJob values: the built
// scenario, the request probability, and the classified structure are
// all constructed during (sequential) enumeration; they are read-only
// afterwards, so workers evaluate jobs concurrently. Jobs of one
// (scheme, model, N, B) combination share one Network, one Model, and
// one Structure (via scenario.Built.WithRate), and jobs of one
// (model, N, r) share the precomputed X across schemes — evaluation per
// point is down to one BandwidthStructure dispatch on cached rows.

// xKey keys the per-enumeration X cache: the built model's fingerprint
// (which encodes kind, parameters, and module count) plus the exact rate
// bits. AxisName is not enough — two hier templates with different
// locality parameters share one axis label.
type xKey struct {
	modelFP uint64
	rBits   uint64
}

// Run evaluates the sweep and returns its points in deterministic order
// (scheme, then model, then N, then B, then r). Points are evaluated
// concurrently by a Spec.Workers-sized pool — each point is an
// independent analytic evaluation plus (with WithSim) an independently
// seeded simulation, so the returned points are identical for every
// worker count. The first evaluation error (lowest grid index) aborts
// the sweep: no new points start, in-flight points finish, and that
// error is returned.
func Run(spec Spec) (*Result, error) {
	if len(spec.Ns) == 0 || len(spec.Bs) == 0 || len(spec.Rs) == 0 || len(spec.Schemes) == 0 {
		return nil, fmt.Errorf("%w: empty dimension", ErrBadSpec)
	}
	jobs, skipped, err := enumerate(spec)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("%w: no valid points in grid (%d combinations skipped)", ErrBadSpec, len(skipped))
	}
	if spec.OnPlan != nil {
		spec.OnPlan(len(jobs), skipped)
	}

	ctx := spec.Context
	if ctx == nil {
		ctx = context.Background()
	}
	backend := spec.Backend
	if backend == nil {
		backend = compute.Local()
	}

	points := make([]Point, len(jobs))
	var mu sync.Mutex
	emit := func(i int, pt Point) {
		mu.Lock()
		points[i] = pt
		mu.Unlock()
		if spec.OnPoint != nil {
			spec.OnPoint(i, pt)
		}
	}
	// local is the one loop that evaluates grid points on this instance:
	// the whole grid here, or whichever indices a BatchSweeper keeps.
	local := func(ctx context.Context, idxs []int) error {
		return ForEachPool(ctx, len(idxs), PoolOptions{Workers: spec.Workers, Label: "sweep"},
			func(ctx context.Context, k int) error {
				i := idxs[k]
				pt, err := compute.MemoPoint(ctx, spec.Memo, backend, jobs[i])
				if err != nil {
					return err
				}
				emit(i, pt)
				return nil
			})
	}
	if bs, ok := backend.(compute.BatchSweeper); ok {
		// Whole-grid seam: the backend (a cluster coordinator) sees the
		// enumerated grid at once, partitions it by key ownership, runs
		// its own share through local, and emits remote points by grid
		// index.
		err = bs.SweepBatch(ctx, compute.SweepBatch{Jobs: jobs, Local: local, Emit: emit})
	} else {
		all := make([]int, len(jobs))
		for i := range all {
			all[i] = i
		}
		err = local(ctx, all)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Points: points, Skipped: skipped}, nil
}

// PoolOptions configures ForEachPool; the zero value runs GOMAXPROCS
// unlabeled workers.
type PoolOptions struct {
	// Workers bounds concurrency: 0 means GOMAXPROCS, 1 forces
	// sequential evaluation.
	Workers int
	// Label, when non-empty, tags worker goroutines with the pprof
	// label pool=<Label>, so CPU profiles of a busy server attribute
	// pool time to the caller (sweep vs batch) instead of one
	// anonymous worker-pool frame.
	Label string
}

// ForEachPool runs fn(ctx, i) for i in [0, n) on a pool of workers. The
// context is checked before each index starts. The first error by lowest
// index aborts the pool — no new indices start, in-flight calls finish —
// and is returned. It is the shared evaluation pool behind Run and the
// service's batch endpoint; workers carry a pprof goroutine label when
// opts.Label is set.
func ForEachPool(ctx context.Context, n int, opts PoolOptions, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		cursor   atomic.Int64 // next index to claim
		aborted  atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)
	cursor.Store(-1)
	work := func(ctx context.Context) {
		for {
			i := int(cursor.Add(1))
			if i >= n || aborted.Load() {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = fn(ctx, i)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil || i < firstIdx {
					firstErr, firstIdx = err, i
				}
				mu.Unlock()
				aborted.Store(true)
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if opts.Label != "" {
				pprof.Do(ctx, pprof.Labels("pool", opts.Label), work)
			} else {
				work(ctx)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// enumerate walks the grid in deterministic order (scheme, model, N, B,
// r), building each point's scenario through the canonical layer.
// Combinations whose constraints are unsatisfiable are recorded in the
// skip list (once per (scheme, model, N, B), since satisfiability does
// not depend on r); out-of-range bus counts are recorded the same way.
// Genuinely invalid input — unknown names, bad rates — aborts with an
// error instead.
func enumerate(spec Spec) ([]compute.PointJob, []Skip, error) {
	models := spec.Models
	if len(models) == 0 {
		if spec.Hierarchical {
			models = []scenario.Model{{Kind: scenario.ModelHier}}
		} else {
			models = []scenario.Model{{Kind: scenario.ModelUniform}}
		}
	}
	var (
		jobs    []compute.PointJob
		skipped []Skip
	)
	xs := make(map[xKey]float64)
	for _, tmpl := range spec.Schemes {
		axis := tmpl.AxisName()
		for _, model := range models {
			if model.Kind == scenario.ModelHotSpot {
				return nil, nil, fmt.Errorf("%w: hotspot has no closed form; sweeps need an analytic model", ErrBadSpec)
			}
			modelAxis := model.AxisName()
			for _, n := range spec.Ns {
				for _, b := range spec.Bs {
					if b < 1 || b > n {
						skipped = append(skipped, Skip{
							Scheme: axis, Model: modelAxis, N: n, B: b,
							Reason: fmt.Sprintf("B=%d outside [1, N=%d]", b, n),
						})
						continue
					}
					built, skip, err := buildCombination(spec, axis, modelAxis, tmpl, model, n, b, xs)
					if err != nil {
						return nil, nil, err
					}
					if skip != "" {
						skipped = append(skipped, Skip{Scheme: axis, Model: modelAxis, N: n, B: b, Reason: skip})
						continue
					}
					jobs = append(jobs, built...)
				}
			}
		}
	}
	return jobs, skipped, nil
}

// buildCombination builds one (scheme, model, N, B) combination at every
// rate, returning a skip reason (and no error) when the combination is
// structurally unsatisfiable. The combination is wired and classified
// once: the first rate goes through the full canonical Build, the rest
// are WithRate copies sharing its Network and Model, and the Classify
// walk runs once for all of them. X values are memoized in xs across
// combinations — the same (model, N, r) recurs for every scheme axis.
func buildCombination(spec Spec, axis, modelAxis string, tmpl scenario.Network, model scenario.Model, n, b int, xs map[xKey]float64) ([]compute.PointJob, string, error) {
	nw := tmpl
	nw.N, nw.M, nw.B = n, 0, b
	s := scenario.Scenario{
		Network: nw,
		Model:   model,
		R:       spec.Rs[0],
		// The sim block is always present so memo keys embed the
		// cycle count and seed whether or not WithSim is set —
		// matching the key layout a simulated sweep of the same grid
		// would use.
		Sim: &scenario.Sim{Cycles: spec.SimCycles, Seed: spec.Seed},
	}
	base, err := s.Build()
	if errors.Is(err, scenario.ErrUnsatisfiable) {
		return nil, err.Error(), nil
	}
	if err != nil {
		return nil, "", err
	}
	var structure *analytic.Structure
	if !base.Crossbar {
		structure, err = analytic.Classify(base.Network)
		if err != nil {
			return nil, "", err
		}
	}
	modelFP := base.Model.Fingerprint()
	jobs := make([]compute.PointJob, 0, len(spec.Rs))
	for i, r := range spec.Rs {
		bl := base
		if i > 0 {
			bl, err = base.WithRate(r)
			if err != nil {
				return nil, "", err
			}
		}
		key := xKey{modelFP: modelFP, rBits: math.Float64bits(r)}
		x, ok := xs[key]
		if !ok {
			x, err = bl.Model.X(r)
			if err != nil {
				return nil, "", err
			}
			xs[key] = x
		}
		jobs = append(jobs, compute.PointJob{
			Built: bl, Axis: axis, Model: modelAxis,
			WithSim: spec.WithSim, X: x, XValid: true, Structure: structure,
		})
	}
	return jobs, "", nil
}

// Series extracts, for one scheme axis and rate, the bandwidth-vs-B
// curve at a fixed N (analytic values), returning parallel B and
// bandwidth slices.
func Series(points []Point, scheme string, n int, r float64) (bs []int, bws []float64) {
	for _, p := range points {
		if p.Scheme == scheme && p.N == n && p.R == r {
			bs = append(bs, p.B)
			bws = append(bws, p.Bandwidth)
		}
	}
	return bs, bws
}
