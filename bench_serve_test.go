// Service-path benchmarks. These live in the external test package
// (multibus_test) because internal/service imports the multibus façade,
// so the in-package bench_test.go cannot import it back without a cycle.
package multibus_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multibus/internal/service"
)

// BenchmarkServeAnalyzeCached measures POST /v1/analyze end to end —
// JSON decode, validation, cache lookup, JSON encode — on the cache-hit
// path versus the cache-miss path. The spread between the two is what
// the singleflight LRU buys a repeated-workload deployment.
func BenchmarkServeAnalyzeCached(b *testing.B) {
	const (
		reqA = `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}`
		reqB = `{"network":{"scheme":"full","n":16,"b":4},"model":{"kind":"hier"},"r":1.0}`
	)
	post := func(b *testing.B, h http.Handler, body string) {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("analyze = %d: %s", rec.Code, rec.Body.String())
		}
	}

	b.Run("hit", func(b *testing.B) {
		s, err := service.New(service.Options{})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		post(b, h, reqA) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, reqA)
		}
		b.StopTimer()
		if hits := s.Cache().Stats().Hits; hits < int64(b.N) {
			b.Fatalf("hits = %d, want ≥ %d — hit benchmark measured the miss path", hits, b.N)
		}
	})

	b.Run("miss", func(b *testing.B) {
		// Capacity 1 with two alternating requests evicts on every call,
		// so each iteration takes the full analytic-solve path.
		s, err := service.New(service.Options{CacheSize: 1})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		bodies := [2]string{reqA, reqB}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, bodies[i%2])
		}
		b.StopTimer()
		if hits := s.Cache().Stats().Hits; hits != 0 {
			b.Fatalf("hits = %d, want 0 — miss benchmark got cache hits", hits)
		}
	})
}

// BenchmarkServeAnalyzeMissLarge measures POST /v1/analyze on the miss
// path at N=M=512, B=64 across the four paper schemes, each request at a
// rate no earlier request used, with a one-entry cache so every call
// computes. This is the shape where the wiring and its fingerprint would
// dominate if they were rebuilt per request; the intern table serves
// them, so the cost left is decode, canonicalize, the closed form and
// encode.
func BenchmarkServeAnalyzeMissLarge(b *testing.B) {
	const rates = 256
	schemes := []string{"full", "single", "partial", "kclass"}
	bodies := make([]string, 0, len(schemes)*rates)
	for k := 0; k < rates; k++ {
		r := 0.05 + 0.9*(float64(k)+0.5)/rates
		for _, sc := range schemes {
			bodies = append(bodies, fmt.Sprintf(`{"network":{"scheme":%q,"n":512,"m":512,"b":64},"model":{"kind":"uniform"},"r":%v}`, sc, r))
		}
	}
	s, err := service.New(service.Options{CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	post := func(body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("analyze = %d: %s", rec.Code, rec.Body.String())
		}
	}
	for _, body := range bodies[:len(schemes)] {
		post(body) // wire each network once before timing
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(bodies[i%len(bodies)])
	}
	b.StopTimer()
	if hits := s.Cache().Stats().Hits; hits != 0 {
		b.Fatalf("hits = %d, want 0 — miss benchmark got cache hits", hits)
	}
}
