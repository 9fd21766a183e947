// Package scenario defines the canonical, serializable description of
// one evaluation point in the multiple-bus design space: which network
// to build (paper Figs. 1–4), which request model to drive it with
// (hierarchical, uniform, Das–Bhuyan, hot-spot), at what request rate,
// and — when simulating — with which simulator knobs.
//
// It is the single source of truth shared by every frontend. The CLI
// tools (via internal/cliutil), the HTTP service (internal/service), and
// the sweep engine (internal/sweep) all assemble a Scenario and hand it
// to Build; none of them interprets scheme names, model kinds, or
// defaults on their own. Canonicalization normalizes every omitted field
// to its effective default, so two spellings of the same configuration —
// flags vs. JSON vs. a sweep grid point — produce byte-identical cache
// keys and therefore share memoized results.
//
// Canonicalization rules (applied by Canonical and Build):
//
//   - network: M defaults to N; partial Groups defaults to 2; kclass
//     Classes defaults to B (or to len(ClassSizes) when explicit sizes
//     are given, with M forced to their sum); fields irrelevant to the
//     scheme are cleared.
//   - model: "unif" and "das" alias to "uniform" and "dasbhuyan"; hier
//     Clusters defaults to 4 when M divides into 4 clusters of ≥ 2
//     modules, falling back to 2 (the one shared rule — the CLI and the
//     HTTP service used to disagree here); hier aggregates default to
//     the paper's 0.6/0.3/0.1; hotspot HotFraction defaults to 0.5.
//   - sim: zero values take the simulator defaults (20000 cycles,
//     cycles/10 warmup, 20 batches, 1 service cycle) and the seed is
//     normalized through sim.EffectiveSeed.
//
// Constraint violations split into two families, matchable with
// errors.Is: ErrInvalid marks malformed specifications (unknown scheme,
// negative N, r outside [0, 1]) and ErrUnsatisfiable marks structurally
// well-formed points that do not exist in the design space (divisibility
// failures such as groups not dividing B); sweep grids skip the latter
// and abort on the former.
package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"multibus/internal/sim"
	"multibus/internal/textio"
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrInvalid tags malformed scenario specifications: unknown scheme
	// or model names, out-of-range parameters, inconsistent fields.
	ErrInvalid = errors.New("scenario: invalid specification")
	// ErrUnsatisfiable tags well-formed scenarios that violate a
	// structural constraint of the design space (divisibility of groups,
	// classes, or clusters). It wraps ErrInvalid, so single-point callers
	// may treat both as bad input while sweep grids skip only these.
	ErrUnsatisfiable = fmt.Errorf("%w: constraint unsatisfiable", ErrInvalid)
)

// Connection scheme names (Network.Scheme).
const (
	SchemeFull    = "full"
	SchemeSingle  = "single"
	SchemePartial = "partial"
	SchemeKClass  = "kclass"
	// SchemeCrossbar is the M·X crossbar reference curve of the paper's
	// figures. It builds the full wiring, but consumers must evaluate it
	// with the crossbar formula — Built.Crossbar flags this — and it is
	// rejected by the single-point analyze/simulate paths.
	SchemeCrossbar = "crossbar"
)

// Request model kinds (Model.Kind).
const (
	ModelUniform   = "uniform"
	ModelHier      = "hier"
	ModelDasBhuyan = "dasbhuyan"
	// ModelHotSpot concentrates HotFraction of references on one module.
	// It is a simulator-only workload: no closed form exists, so it is
	// valid for simulate scenarios but rejected by analyze.
	ModelHotSpot = "hotspot"
)

// Network selects a bus–memory connection scheme. The zero value is
// invalid; Scheme, N, and B are required.
type Network struct {
	Scheme string `json:"scheme"`
	N      int    `json:"n"`
	M      int    `json:"m,omitempty"` // default N
	B      int    `json:"b"`
	// Groups is the group count for SchemePartial (default 2); it must
	// divide both M and B.
	Groups int `json:"groups,omitempty"`
	// Classes is the class count for SchemeKClass with even class sizes
	// (default B); it must divide M and be ≤ B.
	Classes int `json:"classes,omitempty"`
	// ClassSizes gives explicit per-class module counts for SchemeKClass
	// (paper Fig. 3); when set it overrides Classes and forces M to the
	// sum of the sizes.
	ClassSizes []int `json:"classSizes,omitempty"`
}

// Model selects a request model over the network's M modules.
type Model struct {
	Kind string `json:"kind"`
	// Clusters is the top-level cluster count for ModelHier. Zero means
	// the paper's 4 clusters when M divides into 4 clusters of at least
	// 2 modules, falling back to 2 — the one shared default rule.
	Clusters int `json:"clusters,omitempty"`
	// AFavorite/ACluster/ARemote are the hier aggregate fractions; all
	// zero means the paper's 0.6/0.3/0.1.
	AFavorite float64 `json:"aFavorite,omitempty"`
	ACluster  float64 `json:"aCluster,omitempty"`
	ARemote   float64 `json:"aRemote,omitempty"`
	// Q is the Das–Bhuyan favorite-memory fraction.
	Q float64 `json:"q,omitempty"`
	// HotModule/HotFraction parameterize ModelHotSpot (defaults 0, 0.5).
	HotModule   int     `json:"hotModule,omitempty"`
	HotFraction float64 `json:"hotFraction,omitempty"`
}

// Sim carries the simulator knobs; zero values mean the simulator
// defaults, which canonicalization spells out.
type Sim struct {
	Cycles        int   `json:"cycles,omitempty"`        // default 20000
	Warmup        int   `json:"warmup,omitempty"`        // default cycles/10
	Batches       int   `json:"batches,omitempty"`       // default 20
	Seed          int64 `json:"seed,omitempty"`          // default sim.EffectiveSeed(0)
	Resubmit      bool  `json:"resubmit,omitempty"`      // blocked requests re-issue
	RoundRobin    bool  `json:"roundRobin,omitempty"`    // round-robin stage-1 arbiters
	ServiceCycles int   `json:"serviceCycles,omitempty"` // default 1
}

// Scenario is one evaluation point: a network under a request model at
// rate R, optionally with simulator configuration. It is the JSON shape
// of the HTTP API's request bodies and of `-scenario` files.
type Scenario struct {
	Network Network `json:"network"`
	Model   Model   `json:"model"`
	R       float64 `json:"r"`
	Sim     *Sim    `json:"sim,omitempty"`
}

// Parse decodes a scenario from JSON, rejecting unknown fields and
// trailing data — the same strictness as the HTTP layer.
func Parse(data []byte) (Scenario, error) {
	var s Scenario
	if err := textio.DecodeJSON(bytes.NewReader(data), &s); err != nil {
		return Scenario{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	s, err := Parse(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Canonical returns the scenario with every default spelled out and
// every scheme-irrelevant field cleared, or an error for invalid or
// unsatisfiable specifications. Canonicalization is idempotent, and two
// scenarios with equal canonical forms are the same evaluation point —
// they share cache keys and results.
func (s Scenario) Canonical() (Scenario, error) {
	nw, err := s.Network.canonical()
	if err != nil {
		return Scenario{}, err
	}
	model, err := s.Model.canonical(nw.M)
	if err != nil {
		return Scenario{}, err
	}
	if s.R < 0 || s.R > 1 || math.IsNaN(s.R) {
		return Scenario{}, fmt.Errorf("%w: r = %v outside [0, 1]", ErrInvalid, s.R)
	}
	out := Scenario{Network: nw, Model: model, R: s.R}
	if s.Sim != nil {
		cs, err := s.Sim.canonical()
		if err != nil {
			return Scenario{}, err
		}
		out.Sim = &cs
	}
	return out, nil
}

// canonical normalizes the network spec independently of the model.
func (n Network) canonical() (Network, error) {
	if n.N < 1 {
		return Network{}, fmt.Errorf("%w: n = %d (must be ≥ 1)", ErrInvalid, n.N)
	}
	if n.B < 1 {
		return Network{}, fmt.Errorf("%w: b = %d (must be ≥ 1)", ErrInvalid, n.B)
	}
	if n.M < 0 {
		return Network{}, fmt.Errorf("%w: m = %d", ErrInvalid, n.M)
	}
	c := Network{Scheme: n.Scheme, N: n.N, B: n.B, M: n.M}
	if c.M == 0 {
		c.M = n.N
	}
	switch n.Scheme {
	case SchemeFull, SchemeSingle, SchemeCrossbar:
		// No scheme parameters; Groups/Classes/ClassSizes stay cleared.
	case SchemePartial:
		c.Groups = n.Groups
		if c.Groups == 0 {
			c.Groups = 2
		}
		if c.Groups < 1 {
			return Network{}, fmt.Errorf("%w: groups = %d", ErrInvalid, n.Groups)
		}
		if c.M%c.Groups != 0 || c.B%c.Groups != 0 {
			return Network{}, fmt.Errorf("%w: groups g=%d must divide M=%d and B=%d",
				ErrUnsatisfiable, c.Groups, c.M, c.B)
		}
	case SchemeKClass:
		if len(n.ClassSizes) > 0 {
			sum, positive := 0, false
			for j, sz := range n.ClassSizes {
				if sz < 0 {
					return Network{}, fmt.Errorf("%w: classSizes[%d] = %d", ErrInvalid, j, sz)
				}
				if sz > 0 {
					positive = true
				}
				if sz > math.MaxInt-sum {
					return Network{}, fmt.Errorf("%w: classSizes sum overflows", ErrInvalid)
				}
				sum += sz
			}
			if !positive {
				return Network{}, fmt.Errorf("%w: all classes empty", ErrInvalid)
			}
			if n.M != 0 && n.M != sum {
				return Network{}, fmt.Errorf("%w: classSizes sum to %d but m = %d",
					ErrUnsatisfiable, sum, n.M)
			}
			if n.Classes != 0 && n.Classes != len(n.ClassSizes) {
				return Network{}, fmt.Errorf("%w: classes = %d but %d classSizes given",
					ErrInvalid, n.Classes, len(n.ClassSizes))
			}
			if len(n.ClassSizes) > c.B {
				return Network{}, fmt.Errorf("%w: K=%d classes exceed B=%d buses",
					ErrUnsatisfiable, len(n.ClassSizes), c.B)
			}
			c.M = sum
			c.Classes = len(n.ClassSizes)
			c.ClassSizes = append([]int(nil), n.ClassSizes...)
			break
		}
		c.Classes = n.Classes
		if c.Classes == 0 {
			c.Classes = c.B
		}
		if c.Classes < 1 {
			return Network{}, fmt.Errorf("%w: classes = %d", ErrInvalid, n.Classes)
		}
		if c.Classes > c.B {
			return Network{}, fmt.Errorf("%w: K=%d classes exceed B=%d buses",
				ErrUnsatisfiable, c.Classes, c.B)
		}
		if c.M%c.Classes != 0 {
			return Network{}, fmt.Errorf("%w: K=%d must divide M=%d", ErrUnsatisfiable, c.Classes, c.M)
		}
	case "":
		return Network{}, fmt.Errorf("%w: network.scheme is required (full|single|partial|kclass)", ErrInvalid)
	default:
		return Network{}, fmt.Errorf("%w: unknown network.scheme %q (want full|single|partial|kclass)",
			ErrInvalid, n.Scheme)
	}
	if c.connections() > maxConnections {
		return Network{}, fmt.Errorf("%w: network n=%d m=%d b=%d has more than %d connections (B·N processor plus bus–memory, as Table I counts them)",
			ErrInvalid, c.N, c.M, c.B, maxConnections)
	}
	return c, nil
}

// maxConnections bounds the networks a scenario may name. Wiring,
// fingerprinting and analyzing a network costs time proportional to its
// connections, and the wiring and key run before admission control, so
// a tiny body could otherwise ask for seconds of work. 2^17 is exactly
// the largest shape any benchmark builds (N=M=1024, B=64) and keeps the
// worst cold Build + key + analyze near 5 ms; DESIGN.md §11 has the
// measurements.
const maxConnections = 1 << 17

// connections returns the canonical network's connection count as the
// paper's Table I prices it — B·N processor connections plus one per
// wired bus–memory pair — from the scheme parameters alone, before
// anything is wired. Any network over maxConnections reads as
// maxConnections+1, so the arithmetic never overflows.
func (n Network) connections() int {
	// B·N and M each bound the count from below (every module is wired
	// to at least one bus); once both are within the limit, no product
	// below can overflow.
	if n.B > maxConnections/n.N || n.M > maxConnections {
		return maxConnections + 1
	}
	memory := n.M * n.B // full and crossbar
	switch n.Scheme {
	case SchemeSingle:
		memory = n.M
	case SchemePartial:
		memory = n.M * n.B / n.Groups
	case SchemeKClass:
		// Class C_j (1-based) is wired to buses 1 … j+B−K.
		memory = 0
		for j := 1; j <= n.Classes; j++ {
			size := n.M / n.Classes
			if len(n.ClassSizes) > 0 {
				size = n.ClassSizes[j-1]
			}
			memory += size * (j + n.B - n.Classes)
		}
	}
	return n.B*n.N + memory
}

// canonical normalizes the model spec against the module count it will
// be built over.
func (m Model) canonical(modules int) (Model, error) {
	kind := m.Kind
	switch kind {
	case "unif":
		kind = ModelUniform
	case "das":
		kind = ModelDasBhuyan
	}
	c := Model{Kind: kind}
	switch kind {
	case ModelUniform:
		// No parameters.
	case ModelHier:
		clusters := m.Clusters
		if clusters == 0 {
			clusters = HierClusters(modules)
			if clusters == 0 {
				return Model{}, fmt.Errorf("%w: M=%d cannot form the two-level hier workload (need M divisible by 2 with clusters of ≥ 2)",
					ErrUnsatisfiable, modules)
			}
		}
		if clusters < 1 {
			return Model{}, fmt.Errorf("%w: clusters = %d", ErrInvalid, m.Clusters)
		}
		if modules%clusters != 0 || modules/clusters < 2 {
			return Model{}, fmt.Errorf("%w: M=%d does not split into %d clusters of ≥ 2 modules",
				ErrUnsatisfiable, modules, clusters)
		}
		c.Clusters = clusters
		c.AFavorite, c.ACluster, c.ARemote = m.AFavorite, m.ACluster, m.ARemote
		if c.AFavorite == 0 && c.ACluster == 0 && c.ARemote == 0 {
			c.AFavorite, c.ACluster, c.ARemote = 0.6, 0.3, 0.1 // the paper's workload
		}
	case ModelDasBhuyan:
		if m.Q < 0 || m.Q > 1 || math.IsNaN(m.Q) {
			return Model{}, fmt.Errorf("%w: q = %v outside [0, 1]", ErrInvalid, m.Q)
		}
		if modules < 2 {
			return Model{}, fmt.Errorf("%w: Das–Bhuyan model needs M ≥ 2, got %d", ErrUnsatisfiable, modules)
		}
		c.Q = m.Q
	case ModelHotSpot:
		c.HotModule = m.HotModule
		c.HotFraction = m.HotFraction
		if c.HotFraction == 0 {
			c.HotFraction = 0.5
		}
		if c.HotFraction < 0 || c.HotFraction > 1 || math.IsNaN(c.HotFraction) {
			return Model{}, fmt.Errorf("%w: hotFraction = %v outside [0, 1]", ErrInvalid, m.HotFraction)
		}
		if c.HotModule < 0 || c.HotModule >= modules {
			return Model{}, fmt.Errorf("%w: hotModule = %d outside [0, %d)", ErrInvalid, m.HotModule, modules)
		}
	case "":
		return Model{}, fmt.Errorf("%w: model.kind is required (uniform|hier|dasbhuyan|hotspot)", ErrInvalid)
	default:
		return Model{}, fmt.Errorf("%w: unknown model.kind %q (want uniform|hier|dasbhuyan|hotspot)",
			ErrInvalid, m.Kind)
	}
	return c, nil
}

// HierClusters is the shared cluster-count default for the hierarchical
// workload: the paper's 4 clusters when modules divide into 4 clusters
// of at least 2, else 2 such clusters, else 0 (no valid split). Both the
// CLI and the HTTP layer inherit this one rule.
func HierClusters(modules int) int {
	switch {
	case modules%4 == 0 && modules/4 >= 2:
		return 4
	case modules%2 == 0 && modules/2 >= 2:
		return 2
	default:
		return 0
	}
}

// canonical normalizes the simulator knobs to their effective defaults,
// so a scenario that spells the defaults out and one that omits them
// share a cache key.
func (s Sim) canonical() (Sim, error) {
	c := s
	if c.Cycles == 0 {
		c.Cycles = 20000
	}
	if c.Cycles < 1 {
		return Sim{}, fmt.Errorf("%w: sim.cycles = %d (must be ≥ 1)", ErrInvalid, s.Cycles)
	}
	if c.Warmup == 0 {
		c.Warmup = c.Cycles / 10
	}
	if c.Warmup < 0 {
		return Sim{}, fmt.Errorf("%w: sim.warmup = %d (must be ≥ 0)", ErrInvalid, s.Warmup)
	}
	if c.Batches == 0 {
		c.Batches = 20
	}
	if c.Batches < 2 {
		return Sim{}, fmt.Errorf("%w: sim.batches = %d (must be ≥ 2)", ErrInvalid, s.Batches)
	}
	if c.ServiceCycles == 0 {
		c.ServiceCycles = 1
	}
	if c.ServiceCycles < 1 {
		return Sim{}, fmt.Errorf("%w: sim.serviceCycles = %d (must be ≥ 1)", ErrInvalid, s.ServiceCycles)
	}
	c.Seed = sim.EffectiveSeed(c.Seed)
	return c, nil
}

// DefaultSim returns the canonical simulator defaults — the zero Sim
// with every default spelled out. A scenario without a sim block
// simulates (and keys) exactly as one carrying DefaultSim().
func DefaultSim() Sim {
	c, _ := Sim{}.canonical() // the zero Sim always canonicalizes
	return c
}

// SweepScheme maps a sweep scheme name to its network template (N, M,
// and B are filled per grid point). Recognized names: "full", "single",
// "partial" (2 groups), "partial-g<G>", "kclass"/"kclasses" (B even
// classes), and "crossbar".
func SweepScheme(name string) (Network, error) {
	switch name {
	case SchemeFull, SchemeSingle, SchemeCrossbar:
		return Network{Scheme: name}, nil
	case SchemePartial:
		return Network{Scheme: SchemePartial, Groups: 2}, nil
	case SchemeKClass, "kclasses":
		return Network{Scheme: SchemeKClass}, nil
	}
	if g, ok := strings.CutPrefix(name, "partial-g"); ok {
		groups, err := strconv.Atoi(g)
		if err == nil && groups >= 1 {
			return Network{Scheme: SchemePartial, Groups: groups}, nil
		}
	}
	return Network{}, fmt.Errorf("%w: unknown sweep scheme %q (want full|single|partial|partial-g<G>|kclasses|crossbar)",
		ErrInvalid, name)
}

// AxisName names the scheme family this network template selects in
// sweep output and cache keys: "full", "single", "partial-g2",
// "kclasses", "kclasses-k4", "kclass[2,6,8]", or "crossbar". It is
// stable across the grid points the template expands to.
func (n Network) AxisName() string {
	switch n.Scheme {
	case SchemePartial:
		g := n.Groups
		if g == 0 {
			g = 2
		}
		return fmt.Sprintf("partial-g%d", g)
	case SchemeKClass:
		if len(n.ClassSizes) > 0 {
			parts := make([]string, len(n.ClassSizes))
			for i, sz := range n.ClassSizes {
				parts[i] = strconv.Itoa(sz)
			}
			return "kclass[" + strings.Join(parts, ",") + "]"
		}
		if n.Classes > 0 {
			return fmt.Sprintf("kclasses-k%d", n.Classes)
		}
		return "kclasses"
	default:
		return n.Scheme
	}
}

// AxisName names the model axis in sweep output: "uniform", "hier",
// "dasbhuyan-q0.7", or "hotspot".
func (m Model) AxisName() string {
	switch m.Kind {
	case ModelDasBhuyan, "das":
		return fmt.Sprintf("dasbhuyan-q%g", m.Q)
	case "unif":
		return ModelUniform
	case "":
		return "?"
	default:
		return m.Kind
	}
}
