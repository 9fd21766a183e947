package scenario

import (
	"errors"
	"math"
	"testing"

	"multibus/internal/topology"
)

// TestNetworkBuildSchemes: the CLI scheme names build their topology
// schemes, and bad names or constraints surface as errors.
func TestNetworkBuildSchemes(t *testing.T) {
	tests := []struct {
		scheme string
		want   topology.Scheme
	}{
		{"full", topology.SchemeFull},
		{"single", topology.SchemeSingleBus},
		{"partial", topology.SchemePartialGroups},
		{"kclass", topology.SchemeKClasses},
	}
	for _, tt := range tests {
		nw, err := Network{Scheme: tt.scheme, N: 16, M: 16, B: 8, Groups: 2, Classes: 8}.Build()
		if err != nil {
			t.Fatalf("Network{Scheme: %s}.Build: %v", tt.scheme, err)
		}
		if nw.Scheme() != tt.want {
			t.Errorf("scheme %s built %v", tt.scheme, nw.Scheme())
		}
	}
	if _, err := (Network{Scheme: "mesh", N: 16, M: 16, B: 8, Groups: 2, Classes: 8}).Build(); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown scheme: %v, want ErrInvalid", err)
	}
	if _, err := (Network{Scheme: "partial", N: 16, M: 16, B: 8, Groups: 3, Classes: 8}).Build(); err == nil {
		t.Error("bad g should propagate a constraint error")
	}
}

// TestModelBuild: hier and unif build N-module models; unknown kinds
// and unformable hier sizes are rejected.
func TestModelBuild(t *testing.T) {
	h, err := Model{Kind: "hier"}.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 16 {
		t.Errorf("hier model N=%d", h.N())
	}
	u, err := Model{Kind: "unif"}.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != 8 {
		t.Errorf("unif model N=%d", u.N())
	}
	if _, err := (Model{Kind: "zipf"}).Build(8); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown model: %v", err)
	}
	if _, err := (Model{Kind: "hier"}).Build(7); err == nil {
		t.Error("hier with odd N should error")
	}
}

// TestModelBuildWorkload: simulator workloads build at the requested
// dimensions and keep the invalid/unsatisfiable error split.
func TestModelBuildWorkload(t *testing.T) {
	for _, name := range []string{"hier", "unif", "hotspot"} {
		gen, err := Model{Kind: name}.BuildWorkload(16, 16, 0.5)
		if err != nil {
			t.Fatalf("Model{Kind: %s}.BuildWorkload: %v", name, err)
		}
		if gen.NProcessors() != 16 || gen.MModules() != 16 {
			t.Errorf("%s dims %d×%d", name, gen.NProcessors(), gen.MModules())
		}
	}
	if _, err := (Model{Kind: "hier"}).BuildWorkload(16, 8, 0.5); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("hier with N≠M: %v, want ErrUnsatisfiable", err)
	}
	if _, err := (Model{Kind: "nope"}).BuildWorkload(16, 16, 0.5); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown workload: %v", err)
	}
}

// TestModelBuildHierClusters: the built hier model uses the shared
// cluster fallback (4 clusters, else 2, else error).
func TestModelBuildHierClusters(t *testing.T) {
	// N=4 falls back to 2 clusters of 2.
	h, err := Model{Kind: "hier"}.Build(4)
	if err != nil {
		t.Fatalf("N=4 hier: %v", err)
	}
	if got := h.Shape()[0]; got != 2 {
		t.Errorf("N=4 clusters = %d, want 2", got)
	}
	// N=16 keeps the paper's 4 clusters.
	h, err = Model{Kind: "hier"}.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Shape()[0]; got != 4 {
		t.Errorf("N=16 clusters = %d, want 4", got)
	}
	// Odd N cannot form the workload at all.
	if _, err := (Model{Kind: "hier"}).Build(5); err == nil {
		t.Error("N=5 hier should error")
	}
	// N=10: divisible by 2 but not 4 → 2 clusters of 5.
	h, err = Model{Kind: "hier"}.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Shape()[0]; got != 2 {
		t.Errorf("N=10 clusters = %d, want 2", got)
	}
}

// TestConnectionsMatchTopology: the connection count canonicalization
// derives from the scheme parameters equals the wired network's Table I
// count, for every scheme and for shapes where B does not divide M.
func TestConnectionsMatchTopology(t *testing.T) {
	for _, nw := range []Network{
		{Scheme: SchemeFull, N: 16, B: 8},
		{Scheme: SchemeCrossbar, N: 8, M: 12, B: 3},
		{Scheme: SchemeSingle, N: 16, M: 10, B: 4},
		{Scheme: SchemeSingle, N: 4, M: 3, B: 7},
		{Scheme: SchemePartial, N: 16, M: 24, B: 8, Groups: 4},
		{Scheme: SchemeKClass, N: 16, B: 8},
		{Scheme: SchemeKClass, N: 12, M: 12, B: 8, Classes: 3},
		{Scheme: SchemeKClass, N: 3, B: 4, ClassSizes: []int{1, 2, 3}},
		{Scheme: SchemeKClass, N: 5, B: 3, ClassSizes: []int{0, 4, 1}},
		{Scheme: SchemeFull, N: 512, B: 64},
	} {
		c, err := nw.canonical()
		if err != nil {
			t.Fatalf("%+v: %v", nw, err)
		}
		wired, err := c.build()
		if err != nil {
			t.Fatalf("%+v: %v", nw, err)
		}
		if got, want := c.connections(), wired.NumConnections(); got != want {
			t.Errorf("%+v: canonical count %d, wired %d", nw, got, want)
		}
	}
}

// TestNetworkConnectionCap: networks over maxConnections are invalid
// before anything is wired, whatever the size of their fields; the
// largest benchmarked shape and a network exactly at the limit are not.
func TestNetworkConnectionCap(t *testing.T) {
	over := []Network{
		{Scheme: SchemeFull, N: 16384, B: 8192},
		{Scheme: SchemeFull, N: 1024, B: 65},
		{Scheme: SchemeSingle, N: 1, M: maxConnections, B: 1},
		{Scheme: SchemeSingle, N: math.MaxInt, B: math.MaxInt},
		{Scheme: SchemePartial, N: 1 << 40, M: 2, B: 2},
		{Scheme: SchemeKClass, N: 2, B: math.MaxInt, Classes: 1},
		{Scheme: SchemeKClass, N: 1, B: 2, ClassSizes: []int{math.MaxInt / 2, 1}},
	}
	for _, nw := range over {
		if _, err := nw.canonical(); !errors.Is(err, ErrInvalid) || errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("%+v: err %v, want ErrInvalid", nw, err)
		}
	}
	for _, nw := range []Network{
		{Scheme: SchemeFull, N: 512, B: 64},
		{Scheme: SchemeFull, N: 1024, B: 64}, // 2·1024·64 = maxConnections
		{Scheme: SchemeSingle, N: 1, M: maxConnections - 1, B: 1},
	} {
		c, err := nw.canonical()
		if err != nil {
			t.Errorf("%+v: %v", nw, err)
		} else if n := c.connections(); n > maxConnections {
			t.Errorf("%+v: %d connections accepted over the limit", nw, n)
		}
	}
}
