// Service-path benchmarks. They drive internal/service through its
// HTTP handler and use nothing of the multibus façade, so they sit in
// the external test package (multibus_test), apart from the in-package
// table benchmarks.
package multibus_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// BenchmarkServeSweepAnalyticMiss measures POST /v1/sweep on the miss
// path: a 112-point analytic grid (N=64, seven bus counts, sixteen
// rates) whose seed changes every op. The seed is part of every point's
// cache key, so each point misses and passes admission on its own.
// ns/point divides the op time by the grid's 112 points.
func BenchmarkServeSweepAnalyticMiss(b *testing.B) {
	const points = 7 * 16
	rs := make([]string, 16)
	for k := range rs {
		rs[k] = strconv.FormatFloat(float64(k+1)/16, 'g', -1, 64)
	}
	grid := `{"ns":[64],"bs":[1,2,4,8,16,32,64],"rs":[` + strings.Join(rs, ",") + `],"schemes":["full"],"seed":%d}`
	s, err := service.New(service.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(fmt.Sprintf(grid, i+1)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
	if hits := s.Cache().Stats().Hits; hits != 0 {
		b.Fatalf("hits = %d, want 0 — miss benchmark got cache hits", hits)
	}
}
