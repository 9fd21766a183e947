package scenario

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"multibus/internal/analytic"
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
