package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"multibus/internal/sim"
)

// TestCanonicalSpelledOutEqualsOmitted is the key-invariance property:
// a scenario with every default spelled out and one that omits them must
// canonicalize — and therefore key — identically.
func TestCanonicalSpelledOutEqualsOmitted(t *testing.T) {
	cases := []struct {
		name     string
		terse    Scenario
		explicit Scenario
	}{
		{
			name:  "full hier defaults",
			terse: Scenario{Network: Network{Scheme: "full", N: 16, B: 8}, Model: Model{Kind: "hier"}, R: 1},
			explicit: Scenario{
				Network: Network{Scheme: "full", N: 16, M: 16, B: 8},
				Model:   Model{Kind: "hier", Clusters: 4, AFavorite: 0.6, ACluster: 0.3, ARemote: 0.1},
				R:       1,
			},
		},
		{
			name:  "partial groups default",
			terse: Scenario{Network: Network{Scheme: "partial", N: 8, B: 4}, Model: Model{Kind: "unif"}, R: 0.5},
			explicit: Scenario{
				Network: Network{Scheme: "partial", N: 8, M: 8, B: 4, Groups: 2},
				Model:   Model{Kind: "uniform"},
				R:       0.5,
			},
		},
		{
			name:  "kclass classes default to B",
			terse: Scenario{Network: Network{Scheme: "kclass", N: 16, B: 4}, Model: Model{Kind: "unif"}, R: 1},
			explicit: Scenario{
				Network: Network{Scheme: "kclass", N: 16, M: 16, B: 4, Classes: 4},
				Model:   Model{Kind: "uniform"},
				R:       1,
			},
		},
		{
			name: "explicit classSizes force M and Classes",
			terse: Scenario{
				Network: Network{Scheme: "kclass", N: 16, B: 4, ClassSizes: []int{2, 6, 8}},
				Model:   Model{Kind: "das", Q: 0.7},
				R:       0.9,
			},
			explicit: Scenario{
				Network: Network{Scheme: "kclass", N: 16, M: 16, B: 4, Classes: 3, ClassSizes: []int{2, 6, 8}},
				Model:   Model{Kind: "dasbhuyan", Q: 0.7},
				R:       0.9,
			},
		},
		{
			name: "sim defaults spelled out",
			terse: Scenario{
				Network: Network{Scheme: "single", N: 8, B: 4},
				Model:   Model{Kind: "hier"},
				R:       1,
				Sim:     &Sim{},
			},
			explicit: Scenario{
				Network: Network{Scheme: "single", N: 8, M: 8, B: 4},
				Model:   Model{Kind: "hier", Clusters: 4, AFavorite: 0.6, ACluster: 0.3, ARemote: 0.1},
				R:       1,
				Sim:     &Sim{Cycles: 20000, Warmup: 2000, Batches: 20, Seed: sim.EffectiveSeed(0), ServiceCycles: 1},
			},
		},
		{
			name: "hotspot fraction default",
			terse: Scenario{
				Network: Network{Scheme: "full", N: 8, B: 4},
				Model:   Model{Kind: "hotspot"},
				R:       1,
				Sim:     &Sim{Cycles: 100},
			},
			explicit: Scenario{
				Network: Network{Scheme: "full", N: 8, M: 8, B: 4},
				Model:   Model{Kind: "hotspot", HotFraction: 0.5},
				R:       1,
				Sim:     &Sim{Cycles: 100, Warmup: 10, Batches: 20, Seed: 1, ServiceCycles: 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct, err := tc.terse.Canonical()
			if err != nil {
				t.Fatalf("terse Canonical: %v", err)
			}
			ce, err := tc.explicit.Canonical()
			if err != nil {
				t.Fatalf("explicit Canonical: %v", err)
			}
			jt, _ := json.Marshal(ct)
			je, _ := json.Marshal(ce)
			if string(jt) != string(je) {
				t.Fatalf("canonical forms differ:\nterse:    %s\nexplicit: %s", jt, je)
			}
			bt, err := tc.terse.Build()
			if err != nil {
				t.Fatalf("terse Build: %v", err)
			}
			be, err := tc.explicit.Build()
			if err != nil {
				t.Fatalf("explicit Build: %v", err)
			}
			if bt.Key() != be.Key() {
				t.Fatalf("keys differ:\nterse:    %s\nexplicit: %s", bt.Key(), be.Key())
			}
		})
	}
}

// TestCanonicalIdempotent: canonicalizing a canonical scenario is the
// identity, and marshal(unmarshal(canonical)) is byte-stable.
func TestCanonicalIdempotent(t *testing.T) {
	scenarios := []Scenario{
		{Network: Network{Scheme: "full", N: 16, B: 8}, Model: Model{Kind: "hier"}, R: 1},
		{Network: Network{Scheme: "partial", N: 8, B: 4, Groups: 4}, Model: Model{Kind: "unif"}, R: 0.25},
		{Network: Network{Scheme: "kclass", N: 16, B: 4, ClassSizes: []int{2, 6, 8}}, Model: Model{Kind: "dasbhuyan", Q: 0.7}, R: 1},
		{Network: Network{Scheme: "crossbar", N: 16, B: 16}, Model: Model{Kind: "hier"}, R: 0.8},
		{Network: Network{Scheme: "single", N: 6, B: 3}, Model: Model{Kind: "hier"}, R: 1, Sim: &Sim{Cycles: 500, Resubmit: true}},
	}
	for _, s := range scenarios {
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("Canonical(%+v): %v", s, err)
		}
		c2, err := c1.Canonical()
		if err != nil {
			t.Fatalf("re-Canonical: %v", err)
		}
		j1, _ := json.Marshal(c1)
		j2, _ := json.Marshal(c2)
		if string(j1) != string(j2) {
			t.Errorf("canonicalization not idempotent:\nonce:  %s\ntwice: %s", j1, j2)
		}
		var rt Scenario
		if err := json.Unmarshal(j1, &rt); err != nil {
			t.Fatalf("round-trip unmarshal: %v", err)
		}
		j3, _ := json.Marshal(rt)
		if string(j1) != string(j3) {
			t.Errorf("JSON round-trip not byte-stable:\nbefore: %s\nafter:  %s", j1, j3)
		}
	}
}

// TestHierClustersSharedDefault pins the one shared fallback rule: 4
// clusters when M splits into 4 clusters of ≥ 2, else 2, else error.
func TestHierClustersSharedDefault(t *testing.T) {
	cases := []struct {
		m    int
		want int // 0 means unsatisfiable
	}{
		{16, 4}, {8, 4}, {32, 4}, {4, 2}, {6, 2}, {10, 2}, {5, 0}, {9, 0}, {2, 0},
	}
	for _, tc := range cases {
		s := Scenario{Network: Network{Scheme: "full", N: tc.m, B: 2}, Model: Model{Kind: "hier"}, R: 1}
		if tc.m < 2 {
			s.Network.B = 1
		}
		c, err := s.Canonical()
		if tc.want == 0 {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Errorf("M=%d: want ErrUnsatisfiable, got %v", tc.m, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("M=%d: %v", tc.m, err)
			continue
		}
		if c.Model.Clusters != tc.want {
			t.Errorf("M=%d: clusters = %d, want %d", tc.m, c.Model.Clusters, tc.want)
		}
	}
}

// TestInvalidVsUnsatisfiable: malformed specs match only ErrInvalid;
// structural violations match both (ErrUnsatisfiable wraps ErrInvalid).
func TestInvalidVsUnsatisfiable(t *testing.T) {
	invalid := []Scenario{
		{Network: Network{Scheme: "mesh", N: 8, B: 4}, Model: Model{Kind: "unif"}, R: 1},
		{Network: Network{Scheme: "full", N: 0, B: 4}, Model: Model{Kind: "unif"}, R: 1},
		{Network: Network{Scheme: "full", N: 8, B: 0}, Model: Model{Kind: "unif"}, R: 1},
		{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "zipf"}, R: 1},
		{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "unif"}, R: 1.5},
		{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "unif"}, R: -0.1},
		{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "dasbhuyan", Q: 2}, R: 1},
		{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "hotspot", HotModule: 99}, R: 1},
		{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "unif"}, R: 1, Sim: &Sim{Cycles: -5}},
		{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "unif"}, R: 1, Sim: &Sim{Batches: 1}},
		{Network: Network{Scheme: "kclass", N: 8, B: 4, Classes: 2, ClassSizes: []int{4, 2, 2}}, Model: Model{Kind: "unif"}, R: 1},
	}
	for i, s := range invalid {
		_, err := s.Canonical()
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("invalid[%d]: want ErrInvalid, got %v", i, err)
		}
		if errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("invalid[%d]: should not be ErrUnsatisfiable: %v", i, err)
		}
	}
	unsatisfiable := []Scenario{
		{Network: Network{Scheme: "partial", N: 8, B: 5}, Model: Model{Kind: "unif"}, R: 1},            // 2 does not divide 5
		{Network: Network{Scheme: "partial", N: 9, B: 4, Groups: 2}, Model: Model{Kind: "unif"}, R: 1}, // 2 does not divide 9
		{Network: Network{Scheme: "kclass", N: 9, B: 4}, Model: Model{Kind: "unif"}, R: 1},             // 4 does not divide 9
		{Network: Network{Scheme: "kclass", N: 8, B: 2, ClassSizes: []int{2, 2, 4}}, Model: Model{Kind: "unif"}, R: 1},
		{Network: Network{Scheme: "kclass", N: 8, M: 10, B: 4, ClassSizes: []int{4, 4}}, Model: Model{Kind: "unif"}, R: 1},
		{Network: Network{Scheme: "full", N: 5, B: 2}, Model: Model{Kind: "hier"}, R: 1},
		{Network: Network{Scheme: "full", N: 9, B: 2}, Model: Model{Kind: "hier", Clusters: 4}, R: 1},
	}
	for i, s := range unsatisfiable {
		_, err := s.Canonical()
		if !errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("unsatisfiable[%d]: want ErrUnsatisfiable, got %v", i, err)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("unsatisfiable[%d]: must also wrap ErrInvalid: %v", i, err)
		}
	}
}

// TestParseStrict: unknown fields and trailing data are rejected.
func TestParseStrict(t *testing.T) {
	good := `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1}`
	if _, err := Parse([]byte(good)); err != nil {
		t.Fatalf("Parse(good): %v", err)
	}
	bad := []string{
		`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1,"bogus":true}`,
		`{"network":{"scheme":"full","n":16,"b":8,"q":1},"model":{"kind":"hier"},"r":1}`,
		good + `{"again":true}`,
		good + `}`,
		good + `]`,
		good + ` x`,
		`{} {}`,
		`not json`,
	}
	for i, body := range bad {
		if _, err := Parse([]byte(body)); !errors.Is(err, ErrInvalid) {
			t.Errorf("Parse(bad[%d]): want ErrInvalid, got %v", i, err)
		}
	}
}

// TestKeysSeparateOperationsAndPoints: analyze vs simulate vs sweep keys
// never collide, and distinct scenarios get distinct keys.
func TestKeysSeparateOperationsAndPoints(t *testing.T) {
	build := func(s Scenario) *Built {
		t.Helper()
		b, err := s.Build()
		if err != nil {
			t.Fatalf("Build(%+v): %v", s, err)
		}
		return b
	}
	base := Scenario{Network: Network{Scheme: "full", N: 16, B: 8}, Model: Model{Kind: "hier"}, R: 1}
	b := build(base)
	keys := map[string]string{
		"analyze":   b.AnalyzeKey(),
		"simulate":  b.SimulateKey(),
		"sweep":     b.SweepPointKey("full", false),
		"sweep-sim": b.SweepPointKey("full", true),
		"sweep-xb":  b.SweepPointKey("crossbar", false),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s: %s", name, prev, k)
		}
		seen[k] = name
	}
	if !strings.HasPrefix(keys["analyze"], "analyze|") || !strings.HasPrefix(keys["simulate"], "simulate|") {
		t.Errorf("keys miss kind prefixes: %v", keys)
	}

	other := base
	other.R = 0.5
	if build(other).AnalyzeKey() == b.AnalyzeKey() {
		t.Error("different rates share an analyze key")
	}
	bigger := base
	bigger.Network.B = 4
	if build(bigger).AnalyzeKey() == b.AnalyzeKey() {
		t.Error("different bus counts share an analyze key")
	}
}

// TestHotspotFingerprintDistinct: the hotspot pseudo-model must not
// collide with hrm fingerprints or with differently parameterized
// hotspots.
func TestHotspotFingerprintDistinct(t *testing.T) {
	hs := Scenario{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "hotspot"}, R: 1, Sim: &Sim{Cycles: 100}}
	b1, err := hs.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b1.Model != nil {
		t.Fatal("hotspot Built.Model should be nil")
	}
	if err := b1.CanAnalyze(); !errors.Is(err, ErrInvalid) {
		t.Errorf("hotspot CanAnalyze: want ErrInvalid, got %v", err)
	}
	if err := b1.CanSimulate(); err != nil {
		t.Errorf("hotspot CanSimulate: %v", err)
	}
	hs2 := hs
	hs2.Model.HotFraction = 0.9
	b2, err := hs2.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, fp1 := b1.Fingerprints()
	_, fp2 := b2.Fingerprints()
	if fp1 == fp2 {
		t.Error("different hot fractions share a model fingerprint")
	}
	unif := Scenario{Network: Network{Scheme: "full", N: 8, B: 4}, Model: Model{Kind: "unif"}, R: 1}
	bu, err := unif.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, fpu := bu.Fingerprints()
	if fp1 == fpu {
		t.Error("hotspot fingerprint collides with uniform hrm fingerprint")
	}
}

// TestSweepSchemeParsing covers the sweep-axis name grammar.
func TestSweepSchemeParsing(t *testing.T) {
	cases := []struct {
		name string
		want Network
	}{
		{"full", Network{Scheme: "full"}},
		{"single", Network{Scheme: "single"}},
		{"partial", Network{Scheme: "partial", Groups: 2}},
		{"partial-g4", Network{Scheme: "partial", Groups: 4}},
		{"kclasses", Network{Scheme: "kclass"}},
		{"kclass", Network{Scheme: "kclass"}},
		{"crossbar", Network{Scheme: "crossbar"}},
	}
	for _, tc := range cases {
		got, err := SweepScheme(tc.name)
		if err != nil {
			t.Errorf("SweepScheme(%q): %v", tc.name, err)
			continue
		}
		if got.Scheme != tc.want.Scheme || got.Groups != tc.want.Groups {
			t.Errorf("SweepScheme(%q) = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	for _, bad := range []string{"mesh", "partial-g0", "partial-gx", ""} {
		if _, err := SweepScheme(bad); !errors.Is(err, ErrInvalid) {
			t.Errorf("SweepScheme(%q): want ErrInvalid, got %v", bad, err)
		}
	}
}

// TestAxisNames pins the sweep axis labels used in output and keys.
func TestAxisNames(t *testing.T) {
	netCases := []struct {
		nw   Network
		want string
	}{
		{Network{Scheme: "full"}, "full"},
		{Network{Scheme: "partial"}, "partial-g2"},
		{Network{Scheme: "partial", Groups: 4}, "partial-g4"},
		{Network{Scheme: "kclass"}, "kclasses"},
		{Network{Scheme: "kclass", Classes: 4}, "kclasses-k4"},
		{Network{Scheme: "kclass", ClassSizes: []int{2, 6, 8}}, "kclass[2,6,8]"},
		{Network{Scheme: "crossbar"}, "crossbar"},
	}
	for _, tc := range netCases {
		if got := tc.nw.AxisName(); got != tc.want {
			t.Errorf("AxisName(%+v) = %q, want %q", tc.nw, got, tc.want)
		}
	}
	modelCases := []struct {
		m    Model
		want string
	}{
		{Model{Kind: "hier"}, "hier"},
		{Model{Kind: "unif"}, "uniform"},
		{Model{Kind: "uniform"}, "uniform"},
		{Model{Kind: "dasbhuyan", Q: 0.7}, "dasbhuyan-q0.7"},
		{Model{Kind: "hotspot"}, "hotspot"},
	}
	for _, tc := range modelCases {
		if got := tc.m.AxisName(); got != tc.want {
			t.Errorf("Model.AxisName(%+v) = %q, want %q", tc.m, got, tc.want)
		}
	}
}

// TestBuildConstructsExpectedShapes sanity-checks the built objects.
func TestBuildConstructsExpectedShapes(t *testing.T) {
	b, err := (Scenario{
		Network: Network{Scheme: "kclass", N: 16, B: 4, ClassSizes: []int{2, 6, 8}},
		Model:   Model{Kind: "dasbhuyan", Q: 0.7},
		R:       1,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Network.M() != 16 || b.Network.B() != 4 {
		t.Errorf("kclass network = %d modules × %d buses, want 16 × 4", b.Network.M(), b.Network.B())
	}
	if b.Model == nil {
		t.Fatal("dasbhuyan model missing")
	}
	if _, err := b.SimConfig(); err != nil {
		t.Errorf("SimConfig: %v", err)
	}
	xb, err := (Scenario{Network: Network{Scheme: "crossbar", N: 16, B: 16}, Model: Model{Kind: "hier"}, R: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !xb.Crossbar {
		t.Error("crossbar scenario not flagged")
	}
	if err := xb.CanAnalyze(); !errors.Is(err, ErrInvalid) {
		t.Errorf("crossbar CanAnalyze: want ErrInvalid, got %v", err)
	}
	if err := xb.CanSimulate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("crossbar CanSimulate: want ErrInvalid, got %v", err)
	}
	cfg, err := (Scenario{
		Network: Network{Scheme: "full", N: 8, B: 4},
		Model:   Model{Kind: "hier"},
		R:       1,
		Sim:     &Sim{Cycles: 400, Resubmit: true, RoundRobin: true, ServiceCycles: 2},
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cfg.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cycles != 400 || sc.Warmup != 40 || sc.Batches != 20 || sc.ModuleServiceCycles != 2 {
		t.Errorf("SimConfig knobs = %+v", sc)
	}
	if sc.Mode != sim.ModeResubmit {
		t.Error("resubmit not mapped")
	}
	if _, err := sim.RunContext(t.Context(), sc); err != nil {
		t.Errorf("SimConfig does not run: %v", err)
	}
}
