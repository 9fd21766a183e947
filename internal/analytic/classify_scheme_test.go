package analytic

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"multibus/internal/topology"
)

// classifyWiring is the general path of Classify: the structure derived
// from the wiring alone.
func classifyWiring(nw *topology.Network) (*Structure, bool) {
	if s, ok := classifyGroups(nw); ok {
		return s, true
	}
	return classifyPrefix(nw)
}

// randomClassSizes splits m modules over k classes at random, leaving
// some classes empty.
func randomClassSizes(rng *rand.Rand, m, k int) []int {
	sizes := make([]int, k)
	for range m {
		sizes[rng.Intn(k)]++
	}
	return sizes
}

// schemeNetworks builds every pristine scheme network of shape M×B
// (M, B ≥ 1): full, single, partial for every g dividing both, and
// seeded random K-class size vectors with K=1, K=B, a random K, and
// all modules in one class.
func schemeNetworks(t *testing.T, rng *rand.Rand, m, b int) []*topology.Network {
	t.Helper()
	var out []*topology.Network
	add := func(nw *topology.Network, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, nw)
	}
	add(topology.Full(4, m, b))
	add(topology.SingleBus(4, m, b))
	for g := 1; g <= min(m, b); g++ {
		if m%g == 0 && b%g == 0 {
			add(topology.PartialGroups(4, m, b, g))
		}
	}
	for _, k := range []int{1, b, 1 + rng.Intn(b), 1 + rng.Intn(b)} {
		add(topology.KClasses(4, b, randomClassSizes(rng, m, k)))
	}
	lone := make([]int, 1+rng.Intn(b))
	lone[rng.Intn(len(lone))] = m
	add(topology.KClasses(4, b, lone))
	return out
}

// TestClassifySchemeMatchesGeneral pins the scheme fast path to the
// wiring-derived classification: every field, including group and class
// order, must be identical. Parsed copies of the same wiring and
// degraded networks must not take it.
func TestClassifySchemeMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for m := 1; m <= 24; m++ {
		for b := 1; b <= 24; b++ {
			for _, nw := range schemeNetworks(t, rng, m, b) {
				want, ok := classifyWiring(nw)
				if !ok {
					t.Fatalf("%v %v: wiring has no closed form", nw, nw.ClassSizes())
				}
				if fast := classifyScheme(nw); fast == nil {
					t.Fatalf("%v: pristine scheme network missed the fast path", nw)
				}
				got, err := Classify(nw)
				if err != nil {
					t.Fatalf("%v: %v", nw, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %v:\nfast    %+v\ngeneral %+v", nw, nw.ClassSizes(), got, want)
				}
				var wiring bytes.Buffer
				if err := nw.WriteWiring(&wiring); err != nil {
					t.Fatal(err)
				}
				parsed, err := topology.ReadWiring(&wiring)
				if err != nil {
					t.Fatal(err)
				}
				if classifyScheme(parsed) != nil {
					t.Fatalf("%v: parsed wiring took the fast path", nw)
				}
				if s, err := Classify(parsed); err != nil || !reflect.DeepEqual(s, want) {
					t.Fatalf("%v: parsed wiring classified as %+v, %v", nw, s, err)
				}
				for i := 0; i < b && b > 1; i++ {
					deg, err := nw.WithoutBus(i)
					if err != nil {
						t.Fatal(err)
					}
					if classifyScheme(deg) != nil {
						t.Fatalf("%v: degraded network took the fast path", deg)
					}
				}
			}
		}
	}
}
