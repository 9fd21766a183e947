// Package multibus is a library for designing and evaluating multiple bus
// interconnection networks for shared-memory multiprocessors, reproducing
// Chen & Sheu, "Performance Analysis of Multiple Bus Interconnection
// Networks with Hierarchical Requesting Model" (ICDCS 1988).
//
// It provides, behind one façade:
//
//   - topologies: full, single, partial-group (Lang et al.), and the
//     paper's K-class bus–memory connection schemes, plus arbitrary
//     custom wirings ([NewFullNetwork], [NewKClassNetwork], …);
//   - request models: the paper's n-level hierarchical requesting model,
//     uniform, and Das–Bhuyan favorite-memory references ([NewTwoLevelHierarchy], …);
//   - closed-form bandwidth analysis (paper equations (2)–(12)) with a
//     structural classifier that picks the right formula for any
//     classifiable wiring ([Analyze]);
//   - a cycle-level Monte-Carlo simulator of the two-stage arbitration
//     protocol for validation and for wirings with no closed form
//     ([Simulate]);
//   - cost and fault-tolerance evaluation (paper Table I, degraded-mode
//     bandwidth) ([CostSummary], [Survivability]).
//
// # Quick start
//
//	h, _ := multibus.NewTwoLevelHierarchy(16, 4, 0.6, 0.3, 0.1)
//	nw, _ := multibus.NewFullNetwork(16, 16, 8)
//	a, _ := multibus.Analyze(nw, h, 1.0)
//	fmt.Printf("bandwidth: %.2f requests/cycle\n", a.Bandwidth)
//
// See examples/ for runnable scenarios.
package multibus

import (
	"context"
	"errors"
	"fmt"
	"io"

	"multibus/internal/analytic"
	"multibus/internal/arbiter"
	"multibus/internal/cost"
	"multibus/internal/fault"
	"multibus/internal/hrm"
	"multibus/internal/sim"
	"multibus/internal/topology"
	"multibus/internal/workload"
)

// Network is an immutable N×M×B multiple bus topology. Construct one
// with NewFullNetwork, NewSingleBusNetwork, NewPartialBusNetwork,
// NewKClassNetwork, NewEvenKClassNetwork, or NewCustomNetwork.
type Network = topology.Network

// Scheme identifies a network's bus–memory connection scheme.
type Scheme = topology.Scheme

// Connection schemes.
const (
	SchemeCustom        = topology.SchemeCustom
	SchemeFull          = topology.SchemeFull
	SchemeSingleBus     = topology.SchemeSingleBus
	SchemePartialGroups = topology.SchemePartialGroups
	SchemeKClasses      = topology.SchemeKClasses
)

// Hierarchy is the paper's hierarchical requesting model for N×N×B
// systems (one favorite memory module per processor).
type Hierarchy = hrm.Hierarchy

// HierarchyNM is the general N×M×B hierarchical requesting model.
type HierarchyNM = hrm.HierarchyNM

// Workload generates per-cycle memory requests for the simulator.
type Workload = workload.Generator

// RequestModel is any memory reference model that can produce X, the
// probability that a given module is requested in a cycle at request
// rate r. Both Hierarchy and HierarchyNM satisfy it.
type RequestModel interface {
	X(r float64) (float64, error)
}

// NewFullNetwork returns an n×m×b network with every module wired to
// every bus (paper Fig. 1).
func NewFullNetwork(n, m, b int) (*Network, error) { return topology.Full(n, m, b) }

// NewSingleBusNetwork returns an n×m×b network with each module wired to
// exactly one bus, modules spread evenly (paper Fig. 4).
func NewSingleBusNetwork(n, m, b int) (*Network, error) { return topology.SingleBus(n, m, b) }

// NewPartialBusNetwork returns Lang et al.'s partial bus network with g
// groups (paper Fig. 2). g must divide both m and b.
func NewPartialBusNetwork(n, m, b, g int) (*Network, error) {
	return topology.PartialGroups(n, m, b, g)
}

// NewKClassNetwork returns the paper's partial bus network with K
// classes; classSizes[j−1] modules form class C_j, wired to buses
// 1 … j+B−K (paper Fig. 3).
func NewKClassNetwork(n, b int, classSizes []int) (*Network, error) {
	return topology.KClasses(n, b, classSizes)
}

// NewEvenKClassNetwork returns a K-class network with m/k modules per
// class, the configuration of the paper's Table VI.
func NewEvenKClassNetwork(n, m, b, k int) (*Network, error) {
	return topology.EvenKClasses(n, m, b, k)
}

// NewCustomNetwork returns a network with an arbitrary bus–module wiring
// matrix conn[bus][module].
func NewCustomNetwork(n int, conn [][]bool) (*Network, error) { return topology.Custom(n, conn) }

// NewHierarchy builds an n-level hierarchical requesting model from
// branching factors ks = [k_1 … k_n] (N = Π k_i processors) and
// per-module request fractions m_0 … m_n satisfying Σ m_i·N_i = 1.
func NewHierarchy(ks []int, fractions []float64) (*Hierarchy, error) {
	return hrm.New(ks, fractions)
}

// NewHierarchyFromAggregates builds a hierarchy from aggregate level
// probabilities (the total request fraction landing at each level).
func NewHierarchyFromAggregates(ks []int, aggregates []float64) (*Hierarchy, error) {
	return hrm.NewFromAggregates(ks, aggregates)
}

// NewTwoLevelHierarchy builds the two-level workload the paper evaluates:
// numClusters clusters of n/numClusters processor–module pairs, with
// aggregate fractions aFavorite to the favorite module, aCluster to the
// rest of the cluster, and aRemote to other clusters. The paper uses
// (n, 4, 0.6, 0.3, 0.1).
func NewTwoLevelHierarchy(n, numClusters int, aFavorite, aCluster, aRemote float64) (*Hierarchy, error) {
	return hrm.TwoLevelPaper(n, numClusters, aFavorite, aCluster, aRemote)
}

// NewUniformModel returns the uniform requesting model over n modules.
func NewUniformModel(n int) (*Hierarchy, error) { return hrm.Uniform(n) }

// NewDasBhuyanModel returns the favorite-memory model of Das & Bhuyan:
// fraction q to the favorite module, the rest spread uniformly.
func NewDasBhuyanModel(n int, q float64) (*Hierarchy, error) { return hrm.DasBhuyan(n, q) }

// NewHierarchyNM builds the general N×M×B hierarchical model; see
// hrm.NewNM for the parameterization.
func NewHierarchyNM(ks []int, kPrime int, fractions []float64) (*HierarchyNM, error) {
	return hrm.NewNM(ks, kPrime, fractions)
}

// NewHierarchyNMFromAggregates builds the N×M×B model from aggregate
// level fractions.
func NewHierarchyNMFromAggregates(ks []int, kPrime int, aggregates []float64) (*HierarchyNM, error) {
	return hrm.NewNMFromAggregates(ks, kPrime, aggregates)
}

// NewHierarchicalWorkload adapts a Hierarchy into a simulator workload
// with per-cycle request probability r.
func NewHierarchicalWorkload(h *Hierarchy, r float64) (Workload, error) {
	return workload.NewHierarchical(h, r)
}

// NewHierarchicalWorkloadNM adapts an N×M hierarchy into a workload.
func NewHierarchicalWorkloadNM(h *HierarchyNM, r float64) (Workload, error) {
	return workload.NewHierarchicalNM(h, r)
}

// NewUniformWorkload returns a uniform workload over n processors and m
// modules at rate r.
func NewUniformWorkload(n, m int, r float64) (Workload, error) {
	return workload.NewUniform(n, m, r)
}

// NewHotSpotWorkload returns a workload that concentrates fraction hot of
// all references on one module.
func NewHotSpotWorkload(n, m int, r float64, hotModule int, hot float64) (Workload, error) {
	return workload.NewHotSpot(n, m, r, hotModule, hot)
}

// TraceRequest is one trace entry for NewTraceWorkload.
type TraceRequest = workload.Request

// NewTraceWorkload replays a fixed per-cycle request schedule (wrapping
// at the end).
func NewTraceWorkload(n, m int, cycles [][]TraceRequest) (Workload, error) {
	return workload.NewTrace(n, m, cycles)
}

// Analysis is the closed-form evaluation of a network under a request
// model at rate r.
type Analysis struct {
	// X is the probability a given module is requested in a cycle
	// (paper equation (2)).
	X float64
	// Bandwidth is the effective memory bandwidth in accepted requests
	// per cycle (equations (4), (6), (9), or (12) by scheme).
	Bandwidth float64
	// CrossbarBandwidth is the M·X upper reference (a crossbar serving
	// every requested module).
	CrossbarBandwidth float64
	// BusUtilization is Bandwidth / B.
	BusUtilization float64
	// PerformanceCostRatio is Bandwidth per connection (§IV).
	PerformanceCostRatio float64
}

// Sentinel errors of the façade, matchable with errors.Is. Input
// validation failures all wrap one of these (or a typed error from an
// internal package, e.g. sim.ErrBadConfig), so callers — the HTTP
// service layer in particular — can classify an error as "bad request"
// without string matching.
var (
	// ErrDimensionMismatch is returned when a request model's dimensions
	// do not match the network it is evaluated against.
	ErrDimensionMismatch = errors.New("multibus: request model and network disagree on module count")
	// ErrNilArgument is returned when a required network, model, or
	// workload argument is nil.
	ErrNilArgument = errors.New("multibus: nil argument")
	// ErrInvalidOption is returned by Simulate and SimulateReplicated
	// when a SimOption carries an out-of-range value, e.g. WithCycles(0).
	ErrInvalidOption = errors.New("multibus: invalid simulation option")
)

// ErrModelMismatch is the former name of [ErrDimensionMismatch]; the two
// are the same value, so errors.Is matches either.
//
// Deprecated: use ErrDimensionMismatch.
var ErrModelMismatch = ErrDimensionMismatch

// Analyze evaluates the closed-form bandwidth of a classifiable network
// under the given request model at request rate r. It returns
// analytic.ErrNoClosedForm (via errors.Is) for wirings that require the
// simulator.
func Analyze(nw *Network, model RequestModel, r float64) (*Analysis, error) {
	return AnalyzeContext(context.Background(), nw, model, r)
}

// AnalyzeContext is Analyze honouring a context: evaluation is skipped
// if ctx is already done. The closed forms themselves are microsecond-
// scale, so no further cancellation points exist inside; the context
// parameter is for uniformity with SimulateContext and for the serving
// layer's per-request deadlines.
func AnalyzeContext(ctx context.Context, nw *Network, model RequestModel, r float64) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if nw == nil || model == nil {
		return nil, fmt.Errorf("%w: Analyze requires a network and a model", ErrNilArgument)
	}
	if err := checkModelDims(nw, model); err != nil {
		return nil, err
	}
	x, err := model.X(r)
	if err != nil {
		return nil, err
	}
	bw, err := analytic.Bandwidth(nw, x)
	if err != nil {
		return nil, err
	}
	xbar, err := analytic.BandwidthCrossbar(nw.M(), x)
	if err != nil {
		return nil, err
	}
	ratio, err := analytic.PerformanceCostRatio(bw, nw.NumConnections())
	if err != nil {
		return nil, err
	}
	return &Analysis{
		X:                    x,
		Bandwidth:            bw,
		CrossbarBandwidth:    xbar,
		BusUtilization:       bw / float64(nw.B()),
		PerformanceCostRatio: ratio,
	}, nil
}

// checkModelDims verifies the model's module count matches the network
// where the model exposes one.
func checkModelDims(nw *Network, model RequestModel) error {
	switch m := model.(type) {
	case *Hierarchy:
		if m.N() != nw.M() {
			return fmt.Errorf("%w: model %d vs network %d", ErrDimensionMismatch, m.N(), nw.M())
		}
	case *HierarchyNM:
		if m.MModules() != nw.M() {
			return fmt.Errorf("%w: model %d vs network %d", ErrDimensionMismatch, m.MModules(), nw.M())
		}
	}
	return nil
}

// SimResult carries the measurements of a simulation run; see sim.Result
// for field documentation.
type SimResult = sim.Result

// SimOption configures Simulate. An option given an out-of-range value
// does not panic or silently misbehave: it returns a typed error
// (wrapping [ErrInvalidOption]) that Simulate returns before running
// anything.
type SimOption func(*sim.Config) error

// optionErr is the error of an option given an out-of-range value;
// Simulate and SimulateReplicated join those of every option before
// running, all matchable against ErrInvalidOption.
func optionErr(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidOption}, args...)...)
}

// WithCycles sets the number of measured cycles (default 20000).
// cycles must be ≥ 1.
func WithCycles(cycles int) SimOption {
	return func(c *sim.Config) error {
		if cycles < 1 {
			return optionErr("WithCycles(%d): cycles must be ≥ 1", cycles)
		}
		c.Cycles = cycles
		return nil
	}
}

// WithWarmup sets the warmup cycles run before measurement (default
// cycles/10). cycles must be ≥ 0.
func WithWarmup(cycles int) SimOption {
	return func(c *sim.Config) error {
		if cycles < 0 {
			return optionErr("WithWarmup(%d): warmup must be ≥ 0", cycles)
		}
		c.Warmup = cycles
		return nil
	}
}

// WithSeed fixes the RNG seed (default 1); runs are reproducible per
// seed.
func WithSeed(seed int64) SimOption { return func(c *sim.Config) error { c.Seed = seed; return nil } }

// WithResubmit makes blocked processors hold and re-issue their request
// (the realistic regime; the paper's assumption 5 drops blocked
// requests).
func WithResubmit() SimOption {
	return func(c *sim.Config) error { c.Mode = sim.ModeResubmit; return nil }
}

// WithRoundRobinMemoryArbiters switches stage-1 memory arbitration from
// the paper's random selection to round-robin.
func WithRoundRobinMemoryArbiters() SimOption {
	return func(c *sim.Config) error { c.Stage1Policy = arbiter.PolicyRoundRobin; return nil }
}

// WithBatches sets the number of batch-means batches used for the
// bandwidth confidence interval (default 20). n must be ≥ 2 (a
// confidence interval needs at least two batches).
func WithBatches(n int) SimOption {
	return func(c *sim.Config) error {
		if n < 2 {
			return optionErr("WithBatches(%d): batches must be ≥ 2", n)
		}
		c.Batches = n
		return nil
	}
}

// WithModuleServiceCycles makes each memory module stay busy for k
// cycles per accepted request (default 1, the paper's assumption);
// requests arriving at a busy module are blocked — the "referenced
// module might be busy" interference of the paper's §II. k must be ≥ 1.
func WithModuleServiceCycles(k int) SimOption {
	return func(c *sim.Config) error {
		if k < 1 {
			return optionErr("WithModuleServiceCycles(%d): service cycles must be ≥ 1", k)
		}
		c.ModuleServiceCycles = k
		return nil
	}
}

// Simulate runs the cycle-level Monte-Carlo simulator of the two-stage
// arbitration protocol on the given network and workload.
func Simulate(nw *Network, w Workload, opts ...SimOption) (*SimResult, error) {
	return SimulateContext(context.Background(), nw, w, opts...)
}

// SimulateContext is Simulate honouring a context: cancellation is
// checked every few thousand simulated cycles, warm-up and measured
// alike, so a run respecting a deadline stops shortly after it. The
// context error is returned unwrapped, matchable against
// context.Canceled and context.DeadlineExceeded.
func SimulateContext(ctx context.Context, nw *Network, w Workload, opts ...SimOption) (*SimResult, error) {
	cfg, err := buildSimConfig(nw, w, opts)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, cfg)
}

// buildSimConfig assembles and pre-validates a simulator config from
// façade arguments: nil checks, then option application, surfacing any
// invalid-option error the options recorded.
func buildSimConfig(nw *Network, w Workload, opts []SimOption) (sim.Config, error) {
	if nw == nil || w == nil {
		return sim.Config{}, fmt.Errorf("%w: Simulate requires a network and a workload", ErrNilArgument)
	}
	cfg := sim.Config{Topology: nw, Workload: w}
	var errs error
	for _, opt := range opts {
		errs = errors.Join(errs, opt(&cfg))
	}
	return cfg, errs
}

// CostSummary carries the Table I cost metrics of a network.
type CostSummary = cost.Summary

// Cost computes connection count, bus loads, and fault-tolerance degree
// for a network (paper Table I).
func Cost(nw *Network) (*CostSummary, error) { return cost.Summarize(nw) }

// SchemeEffectiveness is a scheme's bandwidth/cost/fault standing.
type SchemeEffectiveness = cost.Effectiveness

// CompareSchemes evaluates bandwidth, connection cost, their ratio, and
// fault degree for all four schemes of Table I at the given model and
// rate (m = n assumed square, g groups, k classes).
func CompareSchemes(n, m, b, g, k int, model RequestModel, r float64) ([]SchemeEffectiveness, error) {
	x, err := model.X(r)
	if err != nil {
		return nil, err
	}
	return cost.CompareEffectiveness(n, m, b, g, k, x)
}

// SurvivabilityLevel summarizes all failure scenarios with a given
// number of failed buses.
type SurvivabilityLevel = fault.Level

// Survivability computes bandwidth degradation for 0 … maxFailures bus
// failures, exhaustively over failure combinations (B ≤ 24).
func Survivability(nw *Network, model RequestModel, r float64, maxFailures int) ([]SurvivabilityLevel, error) {
	x, err := model.X(r)
	if err != nil {
		return nil, err
	}
	return fault.SurvivabilityCurve(nw, x, maxFailures)
}

// ExpectedBandwidthUnderFailures returns E[bandwidth] and the probability
// all modules stay reachable when each bus independently fails with
// probability p.
func ExpectedBandwidthUnderFailures(nw *Network, model RequestModel, r, p float64) (mean, reachProb float64, err error) {
	x, err := model.X(r)
	if err != nil {
		return 0, 0, err
	}
	return fault.ExpectedBandwidth(nw, x, p, 0, 1)
}

// IsNoClosedForm reports whether err indicates a topology outside the
// closed-form families (use Simulate for those networks).
func IsNoClosedForm(err error) bool { return errors.Is(err, analytic.ErrNoClosedForm) }

// ReplicatedSimResult aggregates independent simulation replications;
// see sim.ReplicatedResult.
type ReplicatedSimResult = sim.ReplicatedResult

// SimulateReplicated runs reps independent simulations with distinct
// seeds in parallel and aggregates them, giving a cross-replication
// confidence interval free of batch-means assumptions.
func SimulateReplicated(nw *Network, w Workload, reps int, opts ...SimOption) (*ReplicatedSimResult, error) {
	cfg, err := buildSimConfig(nw, w, opts)
	if err != nil {
		return nil, err
	}
	return sim.RunReplications(cfg, reps)
}

// ReadWiring parses a wiring file (an "n=<N> b=<B> m=<M>" header followed
// by B rows of M 0/1 flags) into a custom network.
func ReadWiring(r io.Reader) (*Network, error) { return topology.ReadWiring(r) }

// NewZipfWorkload returns a popularity-skewed workload: module rank k is
// referenced proportionally to 1/k^s (module 0 most popular; s = 0 is
// uniform).
func NewZipfWorkload(n, m int, r, s float64) (Workload, error) {
	return workload.NewZipf(n, m, r, s)
}
