package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"multibus/internal/obs"
)

// scrapeMetrics GETs /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	return rec.Body.String()
}

// metricValue finds the sample line for series (exact name{labels}
// prefix) and returns its value.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("series %s has unparseable value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsMatchXCacheHeaders drives traffic whose X-Cache outcomes
// are known and asserts /metrics tells the same story: request counts,
// hit/miss counters, latency histogram population, and the cache
// gauges all agree with the observed headers.
func TestMetricsMatchXCacheHeaders(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	var hits, misses int
	for i := 0; i < 3; i++ {
		rec := postJSON(t, h, "/v1/analyze", analyzeBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze %d = %d: %s", i, rec.Code, rec.Body.String())
		}
		switch rec.Header().Get("X-Cache") {
		case "hit":
			hits++
		case "miss":
			misses++
		default:
			t.Fatalf("request %d carried no X-Cache header", i)
		}
	}
	if misses != 1 || hits != 2 {
		t.Fatalf("observed %d misses / %d hits, want 1 / 2", misses, hits)
	}

	body := scrapeMetrics(t, h)
	if got := metricValue(t, body, `mbserve_requests_total{route="analyze"}`); got != 3 {
		t.Errorf("requests_total = %v, want 3", got)
	}
	if got := metricValue(t, body, `mbserve_responses_total{route="analyze",status="200"}`); got != 3 {
		t.Errorf("responses_total 200 = %v, want 3", got)
	}
	if got := metricValue(t, body, `mbserve_cache_requests_total{result="hit",route="analyze"}`); got != float64(hits) {
		t.Errorf("cache hit counter = %v, want %d (the X-Cache hits observed)", got, hits)
	}
	if got := metricValue(t, body, `mbserve_cache_requests_total{result="miss",route="analyze"}`); got != float64(misses) {
		t.Errorf("cache miss counter = %v, want %d (the X-Cache misses observed)", got, misses)
	}
	// Instance-scoped cache gauges agree with the server's own stats.
	stats := s.Cache().Stats()
	if got := metricValue(t, body, "mbserve_cache_hits"); got != float64(stats.Hits) {
		t.Errorf("mbserve_cache_hits = %v, want %d", got, stats.Hits)
	}
	if got := metricValue(t, body, "mbserve_cache_misses"); got != float64(stats.Misses) {
		t.Errorf("mbserve_cache_misses = %v, want %d", got, stats.Misses)
	}
	// The latency histogram counted every analyze request, and its +Inf
	// bucket line is present (text-format completeness).
	if got := metricValue(t, body, `mbserve_request_duration_seconds_count{route="analyze"}`); got != 3 {
		t.Errorf("duration histogram count = %v, want 3", got)
	}
	if got := metricValue(t, body, `mbserve_request_duration_seconds_bucket{route="analyze",le="+Inf"}`); got != 3 {
		t.Errorf("+Inf bucket = %v, want 3", got)
	}
}

// TestTwoServersReportIndependentStats is the regression test for the
// cacheVarOnce bug: the old expvar sync.Once published the first
// Server's cache stats process-wide forever, so a second Server showed
// the first one's gauges. Every Server must now report exactly its own
// traffic.
func TestTwoServersReportIndependentStats(t *testing.T) {
	s1 := newTestServer(t, Options{})
	s2 := newTestServer(t, Options{})
	h1, h2 := s1.Handler(), s2.Handler()

	// All traffic goes to s1: one miss, one hit.
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, h1, "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
			t.Fatalf("s1 analyze = %d", rec.Code)
		}
	}

	b1 := scrapeMetrics(t, h1)
	b2 := scrapeMetrics(t, h2)
	if got := metricValue(t, b1, `mbserve_requests_total{route="analyze"}`); got != 2 {
		t.Errorf("s1 requests = %v, want 2", got)
	}
	if got := metricValue(t, b2, `mbserve_requests_total{route="analyze"}`); got != 0 {
		t.Errorf("s2 requests = %v, want 0 (leaked from s1)", got)
	}
	if got := metricValue(t, b1, "mbserve_cache_hits"); got != 1 {
		t.Errorf("s1 cache hits = %v, want 1", got)
	}
	for _, g := range []string{"mbserve_cache_hits", "mbserve_cache_misses", "mbserve_cache_entries"} {
		if got := metricValue(t, b2, g); got != 0 {
			t.Errorf("s2 %s = %v, want 0 — instance gauges leaked across servers", g, got)
		}
	}
	// And the second server's own traffic lands only on itself.
	if rec := postJSON(t, h2, "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
		t.Fatalf("s2 analyze = %d", rec.Code)
	}
	b1, b2 = scrapeMetrics(t, h1), scrapeMetrics(t, h2)
	if got := metricValue(t, b1, `mbserve_requests_total{route="analyze"}`); got != 2 {
		t.Errorf("s1 requests after s2 traffic = %v, want 2", got)
	}
	if got := metricValue(t, b2, `mbserve_requests_total{route="analyze"}`); got != 1 {
		t.Errorf("s2 requests = %v, want 1", got)
	}
	if got := metricValue(t, b2, "mbserve_cache_misses"); got != 1 {
		t.Errorf("s2 cache misses = %v, want 1", got)
	}
}

// TestAccessLogRecords: every instrumented request emits one slog
// record carrying the route, status, and cache outcome.
func TestAccessLogRecords(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := newTestServer(t, Options{Logger: logger})
	h := s.Handler()

	postJSON(t, h, "/v1/analyze", analyzeBody)
	postJSON(t, h, "/v1/analyze", analyzeBody)
	postJSON(t, h, "/v1/analyze", `not json`)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d records, want 3:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{
		`route=analyze`, `method=POST`, `path=/v1/analyze`, `status=200`, `cache=miss`, `duration=`,
	} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("first record missing %s: %s", want, lines[0])
		}
	}
	if !strings.Contains(lines[1], "cache=hit") {
		t.Errorf("second record should log cache=hit: %s", lines[1])
	}
	if !strings.Contains(lines[2], "status=400") {
		t.Errorf("bad-request record should log status=400: %s", lines[2])
	}
}

// TestNilLoggerDisablesAccessLogs: the default configuration stays
// silent (library users opt in).
func TestNilLoggerDisablesAccessLogs(t *testing.T) {
	s := newTestServer(t, Options{})
	if rec := postJSON(t, s.Handler(), "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
		t.Fatalf("analyze = %d", rec.Code)
	}
	// Nothing observable to assert beyond "no panic, no output": the
	// nop logger's level gate drops records before formatting.
}

// TestExpvarKeptAtDebugVars: GET /debug/vars still serves the runtime's
// expvar JSON (memstats, cmdline), but no process-global mbserve_* map —
// every service number lives in the per-instance registry at /metrics.
func TestExpvarKeptAtDebugVars(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	postJSON(t, h, "/v1/analyze", analyzeBody)
	req := httptest.NewRequest(http.MethodGet, "/debug/vars", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", rec.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not a JSON object: %v", err)
	}
	for _, want := range []string{"memstats", "cmdline"} {
		if _, ok := vars[want]; !ok {
			t.Errorf("/debug/vars missing %q", want)
		}
	}
	for name := range vars {
		if strings.HasPrefix(name, "mbserve_") {
			t.Errorf("/debug/vars publishes process-global %q", name)
		}
	}
}

// TestHistogramQuantileFromServiceTraffic: the registry's histogram
// snapshot — the same object /metrics renders, and the input a
// dashboard's histogram_quantile() reads — places every request in a
// finite bucket once traffic has flowed, with a _sum the buckets' edges
// bracket.
func TestHistogramQuantileFromServiceTraffic(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"network":{"scheme":"full","n":8,"b":%d},"model":{"kind":"unif"},"r":1.0}`, i+1)
		if rec := postJSON(t, h, "/v1/analyze", body); rec.Code != http.StatusOK {
			t.Fatalf("analyze = %d", rec.Code)
		}
	}
	hist := s.Metrics().Histogram(metricDurationSeconds,
		"request latency by route (seconds)", // same family ⇒ same instance
		obs.L("route", "analyze"))
	snap := hist.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("histogram count = %d, want 5", snap.Count)
	}
	if inf := snap.Counts[len(snap.Bounds)]; inf != 0 {
		t.Errorf("%d requests in the +Inf bucket, want 0", inf)
	}
	var placed uint64
	var lo, hi float64
	for i, c := range snap.Counts[:len(snap.Bounds)] {
		placed += c
		if i > 0 {
			lo += float64(c) * snap.Bounds[i-1]
		}
		hi += float64(c) * snap.Bounds[i]
	}
	if placed != snap.Count {
		t.Errorf("buckets hold %d observations, count is %d", placed, snap.Count)
	}
	if snap.Sum <= 0 || snap.Sum < lo || snap.Sum > hi {
		t.Errorf("sum %v outside the bucket edges' bracket [%v, %v]", snap.Sum, lo, hi)
	}
}
