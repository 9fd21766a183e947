// Topology-scale benchmarks: the adjacency-primary representation must
// build thousand-module networks and derive their cache keys in
// microseconds, with memory proportional to the connection count (for
// the scheme constructors, to M+B — rows alias one shared index
// sequence) rather than to the dense B×M product. BenchmarkBuildKey1024
// and BenchmarkTopologyBuild1024 are pinned by `make bench-compare`
// alongside the analytic suite; B/op regressions here mean the dense
// matrix crept back in.
package multibus

import (
	"testing"

	"multibus/internal/scenario"
	"multibus/internal/topology"
)

// buildKeyScenario returns the N=M=1024, B=64 scenario of the given
// scheme, the scale class the ROADMAP's "topologies in the thousands"
// item targets.
func buildKeyScenario(scheme string) scenario.Scenario {
	nw := scenario.Network{Scheme: scheme, N: 1024, M: 1024, B: 64}
	switch scheme {
	case scenario.SchemePartial:
		nw.Groups = 4
	case scenario.SchemeKClass:
		nw.Classes = 64
	}
	return scenario.Scenario{
		Network: nw,
		Model:   scenario.Model{Kind: scenario.ModelUniform},
		R:       0.5,
	}
}

// BenchmarkBuildKey1024 measures one scenario.Build plus AnalyzeKey
// derivation — canonicalization, request model, both fingerprints, and
// the canonical key string — at N=M=1024, B=64. This is the per-point
// setup cost of a sweep grid or a request over thousand-module networks.
// The shape fits the scenario intern table, so after the first iteration
// the wiring and its fingerprint are a table lookup;
// BenchmarkTopologyBuild1024 and BenchmarkTopologyFingerprint1024 price
// the cold wiring and hash separately.
func BenchmarkBuildKey1024(b *testing.B) {
	for _, scheme := range []string{scenario.SchemeKClass, scenario.SchemePartial} {
		spec := buildKeyScenario(scheme)
		b.Run(scheme, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				built, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				if built.AnalyzeKey() == "" {
					b.Fatal("empty key")
				}
			}
		})
	}
}

// BenchmarkTopologyBuild1024 isolates wiring construction at N=M=1024,
// B=64 for every scheme. B/op is the representation's memory story:
// scheme rows alias one shared index sequence, so even Full allocates
// O(M+B) ints, not B×M cells.
func BenchmarkTopologyBuild1024(b *testing.B) {
	builds := []struct {
		name  string
		build func() (*topology.Network, error)
	}{
		{"full", func() (*topology.Network, error) { return topology.Full(1024, 1024, 64) }},
		{"single", func() (*topology.Network, error) { return topology.SingleBus(1024, 1024, 64) }},
		{"partial-g4", func() (*topology.Network, error) { return topology.PartialGroups(1024, 1024, 64, 4) }},
		{"kclass-k64", func() (*topology.Network, error) { return topology.EvenKClasses(1024, 1024, 64, 64) }},
	}
	for _, tc := range builds {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw, err := tc.build()
				if err != nil {
					b.Fatal(err)
				}
				if nw.M() != 1024 {
					b.Fatal("wrong dims")
				}
			}
		})
	}
}

// BenchmarkTopologyFingerprint1024 measures the streamed fingerprint on
// a sparse thousand-module wiring — the hash a cache key pays once per
// network shape. A Network memoizes its fingerprint, so every timed call
// hashes a network that has not been hashed yet: the networks are
// rebuilt in batches with the timer stopped.
func BenchmarkTopologyFingerprint1024(b *testing.B) {
	const batch = 64
	nws := make([]*topology.Network, batch)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for k := range nws {
				nw, err := topology.EvenKClasses(1024, 1024, 64, 64)
				if err != nil {
					b.Fatal(err)
				}
				nws[k] = nw
			}
			b.StartTimer()
		}
		sink ^= nws[i%batch].Fingerprint()
	}
	if sink == 0xdead {
		b.Fatal("impossible")
	}
}
