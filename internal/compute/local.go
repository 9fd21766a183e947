package compute

import (
	"context"

	"multibus/internal/analytic"
	"multibus/internal/scenario"
	"multibus/internal/sim"
)

// AnalyzeFunc is the closed-form computation seam. Tests count or fail
// invocations through it; nil means the in-process closed forms.
type AnalyzeFunc func(ctx context.Context, built *scenario.Built) (*Analysis, error)

// SimulateFunc is the simulation computation seam, handed the
// scenario's Built.SimConfig; nil means sim.RunContext.
type SimulateFunc func(ctx context.Context, cfg sim.Config) (*sim.Result, error)

// LocalBackend evaluates scenarios in-process, straight from the built
// scenario: the path a single instance takes for every request and a
// cluster instance takes for the keys it owns. The multibus façade
// computes the same answers independently; tests pin the two together.
type LocalBackend struct {
	analyze  AnalyzeFunc
	simulate SimulateFunc
}

// NewLocal builds an in-process backend. Nil funcs take the defaults;
// tests pass wrappers to count or fail compute.
func NewLocal(analyze AnalyzeFunc, simulate SimulateFunc) *LocalBackend {
	if analyze == nil {
		analyze = analyzeClosedForm
	}
	if simulate == nil {
		simulate = sim.RunContext
	}
	return &LocalBackend{analyze: analyze, simulate: simulate}
}

// defaultLocal is the shared default backend for callers that
// configured nothing (stateless, so sharing is safe).
var defaultLocal = NewLocal(nil, nil)

// Local returns the shared default in-process backend.
func Local() *LocalBackend { return defaultLocal }

// closedForm is the one closed-form path: X(r) from the request model,
// then the crossbar formula for crossbar points or the bandwidth of the
// built scenario's Structure for the rest.
func closedForm(built *scenario.Built) (x, bw float64, err error) {
	if x, err = built.Model.X(built.Scenario.R); err != nil {
		return 0, 0, err
	}
	if built.Crossbar {
		bw, err = analytic.BandwidthCrossbar(built.Network.M(), x)
		return x, bw, err
	}
	bw, err = analytic.BandwidthStructure(built.Structure, built.Network.B(), x)
	return x, bw, err
}

// analyzeClosedForm is the default AnalyzeFunc: the closed-form
// bandwidth plus the crossbar reference value and the performance/cost
// ratio.
func analyzeClosedForm(ctx context.Context, built *scenario.Built) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	x, bw, err := closedForm(built)
	if err != nil {
		return nil, err
	}
	nw := built.Network
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

// Analyze implements Backend.
func (l *LocalBackend) Analyze(ctx context.Context, built *scenario.Built) (*Analysis, error) {
	if err := built.CanAnalyze(); err != nil {
		return nil, err
	}
	return l.analyze(ctx, built)
}

// run simulates the built scenario through the simulate seam; Simulate
// and simulated sweep points both go through it.
func (l *LocalBackend) run(ctx context.Context, built *scenario.Built) (*sim.Result, error) {
	cfg, err := built.SimConfig()
	if err != nil {
		return nil, err
	}
	return l.simulate(ctx, cfg)
}

// Simulate implements Backend.
func (l *LocalBackend) Simulate(ctx context.Context, built *scenario.Built) (*SimResult, error) {
	res, err := l.run(ctx, built)
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Cycles:                res.Cycles,
		Mode:                  res.Mode.String(),
		Bandwidth:             res.Bandwidth,
		BandwidthCI95:         res.BandwidthCI95,
		AcceptanceProbability: res.AcceptanceProbability,
		BusUtilization:        res.BusUtilization,
		MeanWaitCycles:        res.MeanWaitCycles,
		Offered:               res.Offered,
		Accepted:              res.Accepted,
		NewRequests:           res.NewRequests,
		MemoryBlocked:         res.MemoryBlocked,
		BusBlocked:            res.BusBlocked,
		StrandedBlocked:       res.StrandedBlocked,
		ModuleBusyBlocked:     res.ModuleBusyBlocked,
		JainFairness:          res.JainFairness(),
	}, nil
}

// SweepPoint implements Backend: the analytic bandwidth at the point
// and, with WithSim, an independently seeded simulator cross-check.
// Crossbar points use the crossbar formula on the model's X and are
// never simulated (the reference curve has no bus contention).
func (l *LocalBackend) SweepPoint(ctx context.Context, jb PointJob) (Point, error) {
	built := jb.Built
	x, bw, err := closedForm(built)
	if err != nil {
		return Point{}, err
	}
	pt := Point{
		Scheme: jb.Axis, Model: jb.Model,
		N: built.Network.N(), B: built.Network.B(), R: built.Scenario.R,
		X: x, Bandwidth: bw,
	}
	if jb.WithSim && !built.Crossbar {
		res, err := l.run(ctx, built)
		if err != nil {
			return Point{}, err
		}
		pt.Simulated = true
		pt.SimBandwidth = res.Bandwidth
		pt.SimCI95 = res.BandwidthCI95
	}
	return pt, nil
}
