package scenario

import (
	"fmt"
	"math"

	"multibus/internal/arbiter"
	"multibus/internal/cache"
	"multibus/internal/hrm"
	"multibus/internal/sim"
	"multibus/internal/topology"
	"multibus/internal/workload"
)

// Built is a scenario realized into domain objects: the canonical form
// it was built from, the wired topology, and the analytic request model
// (nil for the simulator-only hotspot kind). All cache keys derive from
// Built — it is the only key path in the repo.
type Built struct {
	// Scenario is the canonical form; equal canonical forms mean equal
	// keys and results.
	Scenario Scenario
	// Network is the wired topology. For SchemeCrossbar it is the full
	// wiring (the crossbar curve has no buses of its own); Crossbar
	// flags that consumers must use the crossbar formula instead of the
	// multiple-bus analysis.
	Network *topology.Network
	// Model is the analytic request model over the network's M modules;
	// nil exactly when the model kind has no closed form (hotspot).
	Model    *hrm.Hierarchy
	Crossbar bool
}

// Build canonicalizes the scenario and constructs its topology and
// request model. Errors wrap ErrInvalid (and ErrUnsatisfiable for
// structural constraint violations). The topology of a shape the process
// has built before is the same shared, immutable *topology.Network (see
// the intern table), so callers must treat it as read-only.
func (s Scenario) Build() (*Built, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	nw, err := c.Network.wire()
	if err != nil {
		return nil, err
	}
	b := &Built{Scenario: c, Network: nw, Crossbar: c.Network.Scheme == SchemeCrossbar}
	if c.Model.Kind != ModelHotSpot {
		b.Model, err = c.Model.build(nw.M())
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// WithRate returns a copy of the built scenario at request rate r,
// sharing the wired Network and request Model objects with the receiver.
// The rate axis is the only scenario field the analytic sweep varies
// within one (scheme, model, N, B) combination; re-running Build per
// rate re-wires the topology and re-derives the hierarchy only to throw
// both away. r is validated exactly as Canonical validates Scenario.R,
// so a WithRate copy keys and evaluates identically to a fresh Build at
// the same rate.
func (b *Built) WithRate(r float64) (*Built, error) {
	if r < 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("%w: r = %v outside [0, 1]", ErrInvalid, r)
	}
	nb := *b
	nb.Scenario.R = r
	return &nb, nil
}

// build wires the canonical network. The topology constructors re-check
// the structural constraints canonicalization enforced; any residual
// error they return already matches the sentinel classification.
func (n Network) build() (*topology.Network, error) {
	switch n.Scheme {
	case SchemeFull, SchemeCrossbar:
		return topology.Full(n.N, n.M, n.B)
	case SchemeSingle:
		return topology.SingleBus(n.N, n.M, n.B)
	case SchemePartial:
		return topology.PartialGroups(n.N, n.M, n.B, n.Groups)
	case SchemeKClass:
		if len(n.ClassSizes) > 0 {
			return topology.KClasses(n.N, n.B, n.ClassSizes)
		}
		return topology.EvenKClasses(n.N, n.M, n.B, n.Classes)
	default:
		return nil, fmt.Errorf("%w: unknown network.scheme %q", ErrInvalid, n.Scheme)
	}
}

// Build canonicalizes and wires a standalone network spec (the cliutil
// delegate path; full scenarios go through Scenario.Build). Like
// Scenario.Build it returns the shared network of an interned shape.
func (n Network) Build() (*topology.Network, error) {
	c, err := n.canonical()
	if err != nil {
		return nil, err
	}
	return c.wire()
}

// build constructs the canonical model over the given module count.
func (m Model) build(modules int) (*hrm.Hierarchy, error) {
	switch m.Kind {
	case ModelUniform:
		return hrm.Uniform(modules)
	case ModelHier:
		return hrm.TwoLevelPaper(modules, m.Clusters, m.AFavorite, m.ACluster, m.ARemote)
	case ModelDasBhuyan:
		return hrm.DasBhuyan(modules, m.Q)
	case ModelHotSpot:
		return nil, fmt.Errorf("%w: hotspot has no analytic request model", ErrInvalid)
	default:
		return nil, fmt.Errorf("%w: unknown model.kind %q", ErrInvalid, m.Kind)
	}
}

// Build canonicalizes and constructs a standalone analytic model over
// the given module count (the cliutil delegate path).
func (m Model) Build(modules int) (*hrm.Hierarchy, error) {
	c, err := m.canonical(modules)
	if err != nil {
		return nil, err
	}
	return c.build(modules)
}

// BuildWorkload canonicalizes the model and constructs the simulator
// workload for an n-processor, m-module system at rate r.
func (m Model) BuildWorkload(n, mods int, r float64) (workload.Generator, error) {
	c, err := m.canonical(mods)
	if err != nil {
		return nil, err
	}
	return c.buildWorkload(n, mods, r)
}

func (m Model) buildWorkload(n, mods int, r float64) (workload.Generator, error) {
	switch m.Kind {
	case ModelUniform:
		return workload.NewUniform(n, mods, r)
	case ModelHotSpot:
		return workload.NewHotSpot(n, mods, r, m.HotModule, m.HotFraction)
	case ModelHier, ModelDasBhuyan:
		if n != mods {
			return nil, fmt.Errorf("%w: %s workload needs N == M, got %d×%d",
				ErrUnsatisfiable, m.Kind, n, mods)
		}
		h, err := m.build(mods)
		if err != nil {
			return nil, err
		}
		return workload.NewHierarchical(h, r)
	default:
		return nil, fmt.Errorf("%w: unknown model.kind %q", ErrInvalid, m.Kind)
	}
}

// Fingerprints returns the (network, model) fingerprint pair every
// cache key is built from. The network memoizes its own fingerprint, and
// an interned network is shared by every Build of its shape, so the
// O(connections) hash runs once per shape; the model fingerprint is
// O(levels) and computed on demand. The hotspot model has no hrm object,
// so it contributes its own variant-tagged hash (tag 3; hrm uses 1 and 2).
func (b *Built) Fingerprints() (networkFP, modelFP uint64) {
	networkFP = b.Network.Fingerprint()
	if b.Model != nil {
		return networkFP, b.Model.Fingerprint()
	}
	m := b.Scenario.Model
	f := newFNV64a()
	f.word(3) // variant tag: hotspot workload (hrm uses 1 = N×N, 2 = N×M)
	f.word(uint64(b.Network.M()))
	f.word(uint64(m.HotModule))
	f.word(math.Float64bits(m.HotFraction))
	return networkFP, uint64(f)
}

// CanAnalyze reports whether the scenario is a valid closed-form
// analysis point, returning a classified error when it is not.
func (b *Built) CanAnalyze() error {
	if b.Crossbar {
		return fmt.Errorf("%w: crossbar is a sweep reference curve, not an analyzable network (use scheme \"full\")", ErrInvalid)
	}
	if b.Model == nil {
		return fmt.Errorf("%w: model kind %q has no closed form (simulate it instead)", ErrInvalid, b.Scenario.Model.Kind)
	}
	return nil
}

// CanSimulate reports whether the scenario is a valid simulation point.
func (b *Built) CanSimulate() error {
	if b.Crossbar {
		return fmt.Errorf("%w: crossbar is an analytic reference curve and cannot be simulated", ErrInvalid)
	}
	return nil
}

// AnalyzeKey is the cache key for the closed-form evaluation of this
// scenario. Canonicalization already normalized every default, so two
// spellings of one configuration key identically.
func (b *Built) AnalyzeKey() string {
	nfp, mfp := b.Fingerprints()
	return cache.AnalyzeKey(nfp, mfp, b.Scenario.R)
}

// SimulateKey is the cache key for simulating this scenario. A nil Sim
// block keys as the canonical defaults (the same run it would produce).
func (b *Built) SimulateKey() string {
	nfp, mfp := b.Fingerprints()
	return cache.SimulateKey(nfp, mfp, b.Scenario.R, b.simParams())
}

// Key is the scenario's cache key for its natural operation: simulation
// when a sim block is present, closed-form analysis otherwise.
func (b *Built) Key() string {
	if b.Scenario.Sim != nil {
		return b.SimulateKey()
	}
	return b.AnalyzeKey()
}

// SweepPointKey is the cache key for this scenario as one sweep grid
// point. Sweep points live in their own key space: the axis tag (the
// Network.AxisName of the sweep axis) separates the crossbar curve from
// the full wiring it is computed on, and the stored value is a
// sweep.Point rather than a full Analysis.
func (b *Built) SweepPointKey(axis string, withSim bool) string {
	nfp, mfp := b.Fingerprints()
	p := b.simParams()
	return cache.SweepPointKey(axis, nfp, mfp, b.Scenario.R, withSim, p.Cycles, p.Seed)
}

// simParams renders the canonical sim block (or, absent one, the
// canonical defaults) as cache key parameters.
func (b *Built) simParams() cache.SimParams {
	s := b.Scenario.Sim
	if s == nil {
		def := DefaultSim()
		s = &def
	}
	return cache.SimParams{
		Cycles:        s.Cycles,
		Warmup:        s.Warmup,
		Batches:       s.Batches,
		ServiceCycles: s.ServiceCycles,
		Seed:          s.Seed,
		Resubmit:      s.Resubmit,
		RoundRobin:    s.RoundRobin,
	}
}

// Workload constructs the simulator workload for this scenario.
func (b *Built) Workload() (workload.Generator, error) {
	return b.Scenario.Model.buildWorkload(b.Network.N(), b.Network.M(), b.Scenario.R)
}

// SimConfig assembles the simulator configuration for this scenario:
// topology, workload, and the canonical sim knobs. Callers running
// through the multibus façade instead translate the canonical Sim into
// façade options; both paths configure the engine identically.
func (b *Built) SimConfig() (sim.Config, error) {
	if err := b.CanSimulate(); err != nil {
		return sim.Config{}, err
	}
	gen, err := b.Workload()
	if err != nil {
		return sim.Config{}, err
	}
	s := b.Scenario.Sim
	if s == nil {
		def := DefaultSim()
		s = &def
	}
	cfg := sim.Config{
		Topology:            b.Network,
		Workload:            gen,
		Cycles:              s.Cycles,
		Warmup:              s.Warmup,
		Batches:             s.Batches,
		Seed:                s.Seed,
		ModuleServiceCycles: s.ServiceCycles,
	}
	if s.Resubmit {
		cfg.Mode = sim.ModeResubmit
	}
	if s.RoundRobin {
		cfg.Stage1Policy = arbiter.PolicyRoundRobin
	}
	return cfg, nil
}

// fnv64a accumulates 64-bit words into a 64-bit FNV-1a hash, matching
// the convention of topology and hrm fingerprints so the hotspot model
// hash composes into the same key space.
type fnv64a uint64

func newFNV64a() fnv64a { return 14695981039346656037 }

func (h *fnv64a) word(v uint64) {
	const prime64 = 1099511628211
	x := uint64(*h)
	for s := 0; s < 64; s += 8 {
		x ^= (v >> s) & 0xff
		x *= prime64
	}
	*h = fnv64a(x)
}
