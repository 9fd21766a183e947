package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multibus/internal/cluster"
	"multibus/internal/service"
)

// liveExposition serves one analyze request through a real cluster-mode
// service and returns its GET /metrics text. The peer URL points at a
// closed port, so the forward fails and is counted under a non-ok
// result.
func liveExposition(t *testing.T) string {
	t.Helper()
	self, peer := "http://127.0.0.1:1", "http://127.0.0.1:2"
	mgr, err := cluster.NewManager(cluster.ManagerOptions{Self: self, Peers: []string{self, peer}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.New(cluster.Options{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Options{Backend: b, Cluster: mgr})
	if err != nil {
		t.Fatal(err)
	}
	b.Register(srv.Metrics())
	h := srv.Handler()
	for i := 0; i < 8; i++ {
		body := analyzeBody("full", 16, 0, 8, "hier", 0.1*float64(i+1))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

func TestParsePromReadsRealExposition(t *testing.T) {
	text := liveExposition(t)
	samples, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := promSum(samples, "mbserve_requests_total", labelIs("route", "analyze")); got != 8 {
		t.Errorf("analyze requests = %v, want 8", got)
	}
	if got := promSum(samples, "mbserve_cache_misses", nil); got != 8 {
		t.Errorf("cache misses = %v, want 8", got)
	}
	for _, name := range []string{"mbserve_cache_hits", "mbserve_cache_evictions", "mbserve_queue_wait_seconds_sum", "mbserve_queue_wait_seconds_count"} {
		found := false
		for _, s := range samples {
			found = found || s.name == name
		}
		if !found {
			t.Errorf("no %s series in the exposition", name)
		}
	}
	if got := promSum(samples, "mbserve_queue_wait_seconds_count", nil); got != 8 {
		t.Errorf("queue waits = %v, want one per computed request", got)
	}
	share := promSum(samples, "mbserve_ring_share", labelIs("peer", "http://127.0.0.1:1")) +
		promSum(samples, "mbserve_ring_share", labelIs("peer", "http://127.0.0.1:2"))
	if share < 0.999 || share > 1.001 {
		t.Errorf("ring shares sum to %v, want 1", share)
	}
	forwarded := promSum(samples, "mbserve_peer_requests_total", nil)
	failed := promSum(samples, "mbserve_peer_requests_total", func(l map[string]string) bool { return l["result"] != "ok" })
	if forwarded == 0 || failed != forwarded {
		t.Errorf("peer requests %v, failed %v: want every forward to the closed port counted as failed", forwarded, failed)
	}
}

func TestParsePromLabelsAndEscapes(t *testing.T) {
	text := `# HELP x_total a counter
# TYPE x_total counter
x_total{route="a\"b",path="c\\d\ne"} 3 1700000000000
x_total{route="z"} 4
bare 1.5e-3
bucket{le="+Inf"} 7
`
	samples, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	if s := samples[0]; s.labels["route"] != `a"b` || s.labels["path"] != "c\\d\ne" || s.value != 3 {
		t.Errorf("escaped sample = %+v", s)
	}
	if got := promSum(samples, "x_total", nil); got != 7 {
		t.Errorf("sum = %v, want 7", got)
	}
	if samples[2].name != "bare" || samples[2].value != 1.5e-3 {
		t.Errorf("bare sample = %+v", samples[2])
	}
	for _, bad := range []string{"x{a=\"1\" 2", "x{a=1} 2", "x", "x 1 2 3", `x{a="\q"} 1`} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed malformed line %q", bad)
		}
	}
}
