// Service-path benchmarks. They drive internal/service through its
// HTTP handler and use nothing of the multibus façade, so they sit in
// the external test package (multibus_test), apart from the in-package
// table benchmarks.
package multibus_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"multibus/internal/service"
)

// benchPost is one prebuilt POST the serve benchmarks replay: the
// request, its body reader and a reusable response writer, so an op
// times the handler rather than httptest.NewRequest and NewRecorder.
type benchPost struct {
	h    http.Handler
	req  *http.Request
	body *strings.Reader
	w    benchWriter
}

func newBenchPost(h http.Handler, path string) *benchPost {
	p := &benchPost{h: h, body: strings.NewReader("")}
	p.req = httptest.NewRequest(http.MethodPost, path, nil)
	p.w.header = make(http.Header)
	return p
}

// do posts body and returns the response's X-Cache header.
func (p *benchPost) do(b *testing.B, body string) string {
	p.body.Reset(body)
	p.req.Body = io.NopCloser(p.body)
	clear(p.w.header)
	p.w.status, p.w.n = 0, 0
	p.h.ServeHTTP(&p.w, p.req)
	if p.w.status != http.StatusOK {
		b.Fatalf("%s = %d", p.req.URL.Path, p.w.status)
	}
	return p.w.header.Get("X-Cache")
}

// benchWriter is a reusable http.ResponseWriter that keeps the status
// and counts the body bytes.
type benchWriter struct {
	header http.Header
	status int
	n      int
}

func (w *benchWriter) Header() http.Header { return w.header }

func (w *benchWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *benchWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

// BenchmarkServeAnalyzeCached measures POST /v1/analyze through the
// service handler on three paths:
//
//   - hit: a byte-identical repeat, answered from the raw-body index
//     with no decode, Build, key or encode;
//   - hit-varied: the same scenario respelled (reordered fields,
//     whitespace, an explicit m equal to n), answered through the
//     canonical key: decode, Build and key, then the stored bytes;
//   - miss: two scenarios alternating through a one-entry cache, so
//     every op computes.
//
// hit ÷ miss is what the analyze cache buys (DESIGN.md §8).
func BenchmarkServeAnalyzeCached(b *testing.B) {
	const (
		reqA = `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}`
		reqB = `{"network":{"scheme":"full","n":16,"b":4},"model":{"kind":"hier"},"r":1.0}`
	)
	respelled := []string{
		`{"model":{"kind":"hier"},"network":{"b":8,"n":16,"scheme":"full"},"r":1.0}`,
		`{ "network": { "scheme": "full", "n": 16, "m": 16, "b": 8 }, "model": { "kind": "hier" }, "r": 1 }`,
		`{"r":1e0,"network":{"n":16,"m":16,"b":8,"scheme":"full"},"model":{"kind":"hier"}}`,
	}
	server := func(b *testing.B, size int) (*service.Server, *benchPost) {
		s, err := service.New(service.Options{CacheSize: size})
		if err != nil {
			b.Fatal(err)
		}
		return s, newBenchPost(s.Handler(), "/v1/analyze")
	}

	b.Run("hit", func(b *testing.B) {
		s, p := server(b, 0)
		p.do(b, reqA) // miss
		p.do(b, reqA) // first hit: attaches the body and its response
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if xc := p.do(b, reqA); xc != "hit" {
				b.Fatalf("X-Cache = %q, want hit", xc)
			}
		}
		b.StopTimer()
		if hits := s.Cache().Stats().Hits; hits < int64(b.N) {
			b.Fatalf("hits = %d, want ≥ %d — hit benchmark measured the miss path", hits, b.N)
		}
	})

	b.Run("hit-varied", func(b *testing.B) {
		s, p := server(b, 0)
		p.do(b, reqA) // miss
		p.do(b, reqA) // first hit: reqA holds the entry's one raw form
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if xc := p.do(b, respelled[i%len(respelled)]); xc != "hit" {
				b.Fatalf("X-Cache = %q, want hit", xc)
			}
		}
		b.StopTimer()
		if hits := s.Cache().Stats().Hits; hits < int64(b.N) {
			b.Fatalf("hits = %d, want ≥ %d — hit benchmark measured the miss path", hits, b.N)
		}
	})

	b.Run("miss", func(b *testing.B) {
		// Capacity 1 with two alternating requests evicts on every call,
		// so each iteration takes the full analytic-solve path.
		s, p := server(b, 1)
		bodies := [2]string{reqA, reqB}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.do(b, bodies[i%2])
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
