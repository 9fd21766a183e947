package scenario

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"multibus/internal/analytic"
	"multibus/internal/sim"
)

// randomSchemeNetwork draws one scheme network spec. M ranges past
// internMaxSize so some shapes are built per call instead of interned;
// Groups, Classes and ClassSizes are drawn without regard to
// divisibility, so some specs are unsatisfiable and Canonical refuses
// them.
func randomSchemeNetwork(rng *rand.Rand) Network {
	m := 1 + rng.Intn(64)
	if rng.Intn(4) == 0 {
		m = internMaxSize - 64 + rng.Intn(2*64)
	}
	b := 1 + rng.Intn(32)
	n := m
	if rng.Intn(2) == 0 {
		n = 1 + rng.Intn(64)
	}
	nw := Network{N: n, M: m, B: b}
	switch rng.Intn(6) {
	case 0:
		nw.Scheme = SchemeFull
	case 1:
		nw.Scheme = SchemeSingle
	case 2:
		nw.Scheme = SchemeCrossbar
	case 3:
		nw.Scheme, nw.Groups = SchemePartial, 1+rng.Intn(b)
	case 4:
		nw.Scheme, nw.Classes = SchemeKClass, 1+rng.Intn(b)
	default:
		// Deal the modules into K explicit classes; some stay empty.
		nw.Scheme = SchemeKClass
		sizes := make([]int, 1+rng.Intn(b))
		for range m {
			sizes[rng.Intn(len(sizes))]++
		}
		nw.ClassSizes, nw.M = sizes, 0
	}
	return nw
}

// TestBuiltStructureMatchesClassify is the property test for the
// classification a built scenario carries: over seeded random scheme
// scenarios — every scheme, explicit class sizes, shapes too large to
// intern, and more distinct shapes than the table holds, so it clears
// mid-run — Built.Structure deep-equals analytic.Classify of the built
// network, and WithRate copies share it. Every spec that canonicalizes
// builds: Classify never fails on a scheme network a scenario can name.
func TestBuiltStructureMatchesClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	schemes := map[string]int{}
	var explicit, oversized int
	shapes := map[string]bool{}
	for i := 0; i < 1500; i++ {
		sc := Scenario{Network: randomSchemeNetwork(rng), Model: Model{Kind: ModelUniform}, R: rng.Float64()}
		c, err := sc.Canonical()
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("%+v: Canonical error %v is not classified", sc.Network, err)
			}
			continue
		}
		built, err := sc.Build()
		if err != nil {
			t.Fatalf("%+v canonicalizes but does not build: %v", sc.Network, err)
		}
		want, err := analytic.Classify(built.Network)
		if err != nil {
			t.Fatalf("%+v: Classify: %v", sc.Network, err)
		}
		if !reflect.DeepEqual(built.Structure, want) {
			t.Fatalf("%+v: Built.Structure = %+v, Classify = %+v", sc.Network, built.Structure, want)
		}
		copied, err := built.WithRate(rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if copied.Structure != built.Structure {
			t.Fatalf("%+v: WithRate copy does not share the parent's structure", sc.Network)
		}
		schemes[c.Network.Scheme]++
		if len(c.Network.ClassSizes) > 0 {
			explicit++
		}
		if c.Network.M+c.Network.B > internMaxSize {
			oversized++
		}
		shapes[string(c.Network.appendInternKey(nil))] = true
	}
	for _, s := range []string{SchemeFull, SchemeSingle, SchemeCrossbar, SchemePartial, SchemeKClass} {
		if schemes[s] < 20 {
			t.Errorf("only %d built %s scenarios", schemes[s], s)
		}
	}
	if explicit < 20 || oversized < 20 {
		t.Errorf("%d explicit kclass and %d oversized scenarios, want ≥ 20 each", explicit, oversized)
	}
	if len(shapes) <= internMaxEntries {
		t.Errorf("only %d distinct shapes; the intern table never filled", len(shapes))
	}
}

// TestSimConfigAssignerMatchesEngine is the property test for the
// stage-2 assigner SimConfig takes from the built Structure: over seeded
// random scenarios — every scheme, explicit class sizes, shapes too
// large to intern, every model kind, both modes and both stage-1
// policies — SimConfig always sets Assigner, and its run is bit-identical
// to the same config with Assigner nil, where the engine classifies the
// network itself. Scenarios SimConfig refuses are exactly those
// CanSimulate refuses.
func TestSimConfigAssignerMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	kinds := []string{ModelUniform, ModelHotSpot, ModelHier, ModelDasBhuyan}
	schemes := map[string]int{}
	var explicit, oversized, refused int
	modes := map[[2]bool]int{}
	for i := 0; i < 800; i++ {
		sc := Scenario{
			Network: randomSchemeNetwork(rng),
			Model:   Model{Kind: kinds[rng.Intn(len(kinds))]},
			R:       rng.Float64(),
			Sim: &Sim{
				Cycles:     20 + rng.Intn(60),
				Seed:       rng.Int63(),
				Resubmit:   rng.Intn(2) == 0,
				RoundRobin: rng.Intn(2) == 0,
			},
		}
		if m := sc.Network.M + sum(sc.Network.ClassSizes); m > 64 {
			// A workload holds an N×M table: keep N small on the large
			// shapes, and the models there that allow N ≠ M.
			sc.Network.N = 1 + rng.Intn(32)
			sc.Model.Kind = kinds[rng.Intn(2)]
		}
		built, err := sc.Build()
		if err != nil {
			continue // unsatisfiable draws; TestBuiltStructureMatchesClassify covers them
		}
		schemes[built.Scenario.Network.Scheme]++
		cfg, err := built.SimConfig()
		if err != nil {
			if cerr := built.CanSimulate(); cerr == nil || cerr.Error() != err.Error() {
				t.Fatalf("%+v: SimConfig refused with %v, CanSimulate says %v", sc, err, cerr)
			}
			refused++
			continue
		}
		if cfg.Assigner == nil {
			t.Fatalf("%+v: SimConfig left Assigner nil", sc)
		}
		got, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		ref, err := built.SimConfig()
		if err != nil {
			t.Fatal(err)
		}
		ref.Assigner = nil
		want, err := sim.Run(ref)
		if err != nil {
			t.Fatalf("%+v: engine-classified run: %v", sc, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: SimConfig run\n%+v\nengine-classified run\n%+v", sc, got, want)
		}
		if len(built.Scenario.Network.ClassSizes) > 0 {
			explicit++
		}
		if built.Network.M()+built.Network.B() > internMaxSize {
			oversized++
		}
		modes[[2]bool{sc.Sim.Resubmit, sc.Sim.RoundRobin}]++
	}
	for _, s := range []string{SchemeFull, SchemeSingle, SchemeCrossbar, SchemePartial, SchemeKClass} {
		if schemes[s] < 20 {
			t.Errorf("only %d built %s scenarios", schemes[s], s)
		}
	}
	if explicit < 20 || oversized < 20 || refused < 20 || len(modes) < 4 {
		t.Errorf("%d explicit kclass, %d oversized, %d refused scenarios and %d of 4 mode/policy pairs, want ≥ 20 each and all 4",
			explicit, oversized, refused, len(modes))
	}
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}
