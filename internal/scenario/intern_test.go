package scenario

import (
	"math/rand"
	"sync"
	"testing"

	"multibus/internal/analytic"
	"multibus/internal/topology"
)

// TestWithRateKeysByteIdenticalToFreshBuild pins the memoized
// fingerprint contract: a WithRate copy (sharing its parent's network
// and its memoized fingerprint) must key byte-identically to a scenario
// freshly built at that rate — the property the sweep enumerator and
// cluster routing both rest on.
func TestWithRateKeysByteIdenticalToFreshBuild(t *testing.T) {
	base := Scenario{
		Network: Network{Scheme: SchemeFull, N: 16, B: 8},
		Model:   Model{Kind: ModelHier},
		R:       1.0,
		Sim:     &Sim{Cycles: 5000, Seed: 11},
	}
	parent, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Touch the memo before copying: the copies must share the computed
	// fingerprint, not recompute a divergent one.
	parent.Fingerprints()
	for _, r := range []float64{0, 0.125, 0.3, 0.77, 1} {
		copied, err := parent.WithRate(r)
		if err != nil {
			t.Fatal(err)
		}
		sc := base
		sc.R = r
		fresh, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := copied.AnalyzeKey(), fresh.AnalyzeKey(); got != want {
			t.Errorf("r=%v AnalyzeKey: WithRate %q, fresh %q", r, got, want)
		}
		if got, want := copied.SimulateKey(), fresh.SimulateKey(); got != want {
			t.Errorf("r=%v SimulateKey: WithRate %q, fresh %q", r, got, want)
		}
		if got, want := copied.SweepPointKey("full", true), fresh.SweepPointKey("full", true); got != want {
			t.Errorf("r=%v SweepPointKey: WithRate %q, fresh %q", r, got, want)
		}
	}
}

// TestFingerprintsMemoSharedAcrossWithRate checks that rate copies share
// the parent's network, which carries the memoized fingerprint, and that
// the pair equals one derived from a freshly wired, un-interned network.
func TestFingerprintsMemoSharedAcrossWithRate(t *testing.T) {
	sc := Scenario{
		Network: Network{Scheme: SchemePartial, N: 12, M: 16, B: 6, Groups: 2},
		Model:   Model{Kind: ModelHier},
		R:       0.5,
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	copied, err := built.WithRate(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if built.Network != copied.Network {
		t.Fatal("WithRate copy does not share the parent's network")
	}
	nfp, mfp := copied.Fingerprints()
	fresh := freshBuilt(t, copied.Scenario)
	dn, dm := fresh.Fingerprints()
	if nfp != dn || mfp != dm {
		t.Errorf("memoized pair (%x, %x) != fresh recomputation (%x, %x)", nfp, mfp, dn, dm)
	}
}

// freshBuilt realizes the canonical scenario c the way Build does, but
// wires a new, un-interned network: the reference interning must match.
func freshBuilt(t testing.TB, c Scenario) *Built {
	t.Helper()
	nw, err := c.Network.build()
	if err != nil {
		t.Fatalf("%+v: %v", c.Network, err)
	}
	b := &Built{Scenario: c, Network: nw, Crossbar: c.Network.Scheme == SchemeCrossbar}
	if c.Model.Kind != ModelHotSpot {
		if b.Model, err = c.Model.build(nw.M()); err != nil {
			t.Fatalf("%+v: %v", c.Model, err)
		}
	}
	return b
}

// pristineShapes lists every canonical pristine network with M, B ≤ 24:
// each scheme, every valid group count, every valid even class count,
// and seeded explicit class-size vectors (zero-size classes included)
// for every valid K. Shapes that differ in one field only sit next to
// each other — each shape at N = M and at N ≠ M, and two size vectors
// per K — so a key that dropped the field would collide while the first
// is still in the table.
func pristineShapes() []Network {
	rng := rand.New(rand.NewSource(24))
	var base []Network
	for m := 1; m <= 24; m++ {
		for b := 1; b <= 24; b++ {
			for _, scheme := range []string{SchemeFull, SchemeSingle, SchemeCrossbar} {
				base = append(base, Network{Scheme: scheme, M: m, B: b})
			}
			for g := 1; g <= min(m, b); g++ {
				if m%g == 0 && b%g == 0 {
					base = append(base, Network{Scheme: SchemePartial, M: m, B: b, Groups: g})
				}
			}
			for k := 1; k <= min(m, b); k++ {
				if m%k == 0 {
					base = append(base, Network{Scheme: SchemeKClass, M: m, B: b, Classes: k})
				}
			}
			for k := 1; k <= b; k++ {
				for range 2 {
					// Deal m modules into k classes at random; some stay empty.
					sizes := make([]int, k)
					for j := 0; j < m; j++ {
						sizes[rng.Intn(k)]++
					}
					base = append(base, Network{Scheme: SchemeKClass, M: m, B: b, ClassSizes: sizes})
				}
			}
		}
	}
	var out []Network
	for _, nw := range base {
		for _, n := range []int{nw.M, 50 - nw.M} {
			nw.N = n
			out = append(out, nw)
		}
	}
	return out
}

// TestInternedKeysMatchFreshConstruction is the differential test for
// the intern table: for every pristine shape with M, B ≤ 24, a Build
// served from the table keys byte-identically to a freshly wired network
// and wires an Equal network, and a repeated Build returns the very
// network the table holds.
func TestInternedKeysMatchFreshConstruction(t *testing.T) {
	shapes := pristineShapes()
	for _, nw := range shapes {
		sc := Scenario{Network: nw, Model: Model{Kind: ModelUniform}, R: 0.625, Sim: &Sim{Cycles: 1000, Seed: 3}}
		if _, err := sc.Build(); err != nil {
			t.Fatalf("%+v: %v", nw, err)
		}
		interned, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		again, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		if again.Network != interned.Network {
			t.Fatalf("%+v: repeated Build wired a new network instead of the interned one", nw)
		}
		fresh := freshBuilt(t, interned.Scenario)
		if !interned.Network.Equal(fresh.Network) {
			t.Fatalf("%+v: interned network differs from a fresh construction", nw)
		}
		axis := interned.Scenario.Network.AxisName()
		for _, k := range [][2]string{
			{interned.AnalyzeKey(), fresh.AnalyzeKey()},
			{interned.SimulateKey(), fresh.SimulateKey()},
			{interned.SweepPointKey(axis, true), fresh.SweepPointKey(axis, true)},
		} {
			if k[0] != k[1] {
				t.Fatalf("%+v: interned key %q, fresh key %q", nw, k[0], k[1])
			}
		}
	}
	if len(shapes) <= internMaxEntries {
		t.Fatalf("only %d shapes; the table never filled", len(shapes))
	}
}

// TestInternSkipsOversizedShapes checks the per-network size limit: a
// shape past it is wired per call, never stored.
func TestInternSkipsOversizedShapes(t *testing.T) {
	sc := Scenario{Network: Network{Scheme: SchemeSingle, N: 8, M: internMaxSize, B: 4}, Model: Model{Kind: ModelUniform}, R: 1}
	a, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.Network == b.Network {
		t.Error("a shape over the size limit was interned")
	}
	if a.AnalyzeKey() != b.AnalyzeKey() {
		t.Errorf("oversized shape keys differ across builds: %q vs %q", a.AnalyzeKey(), b.AnalyzeKey())
	}
}

// TestInternConcurrentBuildsPastCap races goroutines building
// overlapping shapes — more than the table holds, so it clears while
// they run — and checks every key, and the bandwidth of the shared
// structure, against a fresh construction. Run it under -race: the
// table, the lazily memoized network fingerprint and the structures the
// evaluator reads are all shared state.
func TestInternConcurrentBuildsPastCap(t *testing.T) {
	var scs []Scenario
	var want []string
	var wantBW []float64
	for n := 1; n <= 2*internMaxEntries; n++ {
		sc := Scenario{Network: Network{Scheme: SchemeFull, N: n, B: 1 + n%7}, Model: Model{Kind: ModelUniform}, R: 0.5}
		c, err := sc.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		fresh := freshBuilt(t, c)
		bw, err := analytic.Bandwidth(fresh.Network, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
		want = append(want, fresh.AnalyzeKey())
		wantBW = append(wantBW, bw)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(scs); i++ {
				j := (i*(2*w+1) + w) % len(scs) // a different stride per worker
				built, err := scs[j].Build()
				if err != nil {
					t.Error(err)
					return
				}
				if got := built.AnalyzeKey(); got != want[j] {
					t.Errorf("worker %d, shape %d: key %q, want %q", w, j, got, want[j])
					return
				}
				bw, err := analytic.BandwidthStructure(built.Structure, built.Network.B(), 0.5)
				if err != nil || bw != wantBW[j] {
					t.Errorf("worker %d, shape %d: bandwidth %v (%v), want %v", w, j, bw, err, wantBW[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInternedNetworkBuildsShareWithScenarios checks Network.Build and
// Scenario.Build draw on the same table.
func TestInternedNetworkBuildsShareWithScenarios(t *testing.T) {
	spec := Network{Scheme: SchemeKClass, N: 12, B: 4, ClassSizes: []int{3, 0, 5, 4}}
	nw, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	built, err := Scenario{Network: spec, Model: Model{Kind: ModelUniform}, R: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Network != nw {
		t.Error("Network.Build and Scenario.Build wired separate networks for one shape")
	}
	ref, err := topology.KClasses(12, 4, []int{3, 0, 5, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Equal(ref) || nw.Fingerprint() != ref.Fingerprint() {
		t.Errorf("interned %v differs from topology.KClasses", nw)
	}
}

// BenchmarkAnalyzeKeyMemoized measures keying a rate copy of an
// already-built scenario — the sweep hot path, where the O(B·M)
// fingerprint walk must be paid once, not per point.
func BenchmarkAnalyzeKeyMemoized(b *testing.B) {
	sc := Scenario{
		Network: Network{Scheme: SchemeFull, N: 64, B: 32},
		Model:   Model{Kind: ModelHier},
		R:       1.0,
	}
	built, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copied, err := built.WithRate(0.5)
		if err != nil {
			b.Fatal(err)
		}
		if copied.AnalyzeKey() == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkAnalyzeKeyFresh is the contrast case: a Build per key pays
// canonicalization and the request model every time; the wiring and its
// fingerprint come from the intern table after the first iteration.
func BenchmarkAnalyzeKeyFresh(b *testing.B) {
	sc := Scenario{
		Network: Network{Scheme: SchemeFull, N: 64, B: 32},
		Model:   Model{Kind: ModelHier},
		R:       0.5,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, err := sc.Build()
		if err != nil {
			b.Fatal(err)
		}
		if built.AnalyzeKey() == "" {
			b.Fatal("empty key")
		}
	}
}
