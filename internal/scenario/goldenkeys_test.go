package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden key fixtures")

// goldenKeyCases spans every scheme and model kind the key space
// serves. Names are stable identifiers; adding a case is fine, changing
// an existing key string is a cluster-wide cache-contract break.
var goldenKeyCases = []struct {
	name string
	sc   Scenario
}{
	{"full-hier", Scenario{Network: Network{Scheme: SchemeFull, N: 16, B: 8}, Model: Model{Kind: ModelHier}, R: 1.0}},
	{"full-hier-half-rate", Scenario{Network: Network{Scheme: SchemeFull, N: 16, B: 8}, Model: Model{Kind: ModelHier}, R: 0.5}},
	{"full-unif", Scenario{Network: Network{Scheme: SchemeFull, N: 16, B: 8}, Model: Model{Kind: ModelUniform}, R: 1.0}},
	{"full-rect", Scenario{Network: Network{Scheme: SchemeFull, N: 8, M: 12, B: 4}, Model: Model{Kind: ModelHier}, R: 0.75}},
	{"single-hier", Scenario{Network: Network{Scheme: SchemeSingle, N: 16, B: 1}, Model: Model{Kind: ModelHier}, R: 1.0}},
	{"partial-g2-hier", Scenario{Network: Network{Scheme: SchemePartial, N: 16, B: 8, Groups: 2}, Model: Model{Kind: ModelHier}, R: 1.0}},
	{"kclass-hier", Scenario{Network: Network{Scheme: SchemeKClass, N: 16, B: 8, ClassSizes: []int{8, 8}}, Model: Model{Kind: ModelHier}, R: 1.0}},
	{"crossbar", Scenario{Network: Network{Scheme: SchemeCrossbar, N: 16, B: 8}, Model: Model{Kind: ModelHier}, R: 1.0}},
	{"full-hotspot", Scenario{Network: Network{Scheme: SchemeFull, N: 16, B: 8}, Model: Model{Kind: ModelHotSpot, HotFraction: 0.5}, R: 1.0, Sim: &Sim{Cycles: 10000, Seed: 1}}},
	{"full-hier-sim", Scenario{Network: Network{Scheme: SchemeFull, N: 16, B: 8}, Model: Model{Kind: ModelHier}, R: 1.0, Sim: &Sim{Cycles: 20000, Seed: 42}}},
}

// renderGoldenKeys produces the fixture content: one block per case
// with every canonical key the cluster routes and caches by.
func renderGoldenKeys(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# Canonical cache-key strings. Regenerate with:")
	fmt.Fprintln(&buf, "#   go test ./internal/scenario -run TestCanonicalKeysGolden -update")
	fmt.Fprintln(&buf, "# A diff here means every deployed instance's cache and the ring's")
	fmt.Fprintln(&buf, "# request routing change together — bump deliberately, never silently.")
	for _, tc := range goldenKeyCases {
		built, err := tc.sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&buf, "\n[%s]\n", tc.name)
		fmt.Fprintf(&buf, "analyze   %s\n", built.AnalyzeKey())
		fmt.Fprintf(&buf, "simulate  %s\n", built.SimulateKey())
		fmt.Fprintf(&buf, "sweep     %s\n", built.SweepPointKey(built.Scenario.Network.AxisName(), built.Scenario.Sim != nil))
	}
	return buf.Bytes()
}

// TestCanonicalKeysGolden pins the exact key strings. Everything in the
// cluster design assumes these are stable across instances and
// releases: the consistent-hash ring routes by them, caches join
// in-flight work by them, and a silent format change would split one
// logical entry across incompatible key spaces mid-upgrade.
func TestCanonicalKeysGolden(t *testing.T) {
	got := renderGoldenKeys(t)
	// The second render finds every network in the intern table.
	if again := renderGoldenKeys(t); !bytes.Equal(again, got) {
		t.Errorf("keys from interned networks differ from the first render:\n got:\n%s\nfirst:\n%s", again, got)
	}
	path := filepath.Join("testdata", "keys.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical keys drifted from %s — if intentional, regenerate with -update and treat as a cache-contract bump.\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
