package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multibus/internal/compute"
	"multibus/internal/scenario"
)

func decodeBatch(t *testing.T, body []byte) batchBody {
	t.Helper()
	var b batchBody
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("batch body: %v\n%s", err, body)
	}
	return b
}

func TestBatchMixedOperations(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	body := `{"scenarios":[
		{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0},
		{"network":{"scheme":"single","n":8,"b":2},"model":{"kind":"unif"},"r":0.5,
		 "sim":{"cycles":500,"seed":3}},
		{"network":{"scheme":"partial","n":16,"b":8,"groups":3},"model":{"kind":"hier"},"r":1.0}
	]}`
	rec := postJSON(t, h, "/v1/batch", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first batch X-Cache = %q", got)
	}
	b := decodeBatch(t, rec.Body.Bytes())
	if len(b.Items) != 3 {
		t.Fatalf("items = %d", len(b.Items))
	}
	if b.Items[0].Op != "analyze" || b.Items[0].Analysis == nil || b.Items[0].Analysis.Bandwidth <= 0 {
		t.Errorf("item 0 not analyzed: %+v", b.Items[0])
	}
	if b.Items[1].Op != "simulate" || b.Items[1].Simulation == nil || b.Items[1].Simulation.Cycles != 500 {
		t.Errorf("item 1 not simulated: %+v", b.Items[1])
	}
	// The infeasible item fails alone with a classified error.
	if b.Items[2].Error == nil || b.Items[2].Error.Code != "invalid_request" {
		t.Errorf("item 2 error = %+v", b.Items[2].Error)
	}
	if b.Items[2].Analysis != nil || b.Items[2].Simulation != nil {
		t.Errorf("failed item carries results: %+v", b.Items[2])
	}

	// Repeat: every valid item is now served from cache... but the
	// failing item can never be "cached", so the header stays miss.
	rec = postJSON(t, h, "/v1/batch", body)
	b = decodeBatch(t, rec.Body.Bytes())
	if !b.Items[0].Cached || !b.Items[1].Cached {
		t.Errorf("repeat items not cached: %+v, %+v", b.Items[0], b.Items[1])
	}
}

// TestBatchCacheHitHeader: a batch of all-valid scenarios reports
// X-Cache hit once every item repeats.
func TestBatchCacheHitHeader(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	// Previously unreachable sweep points: explicit class sizes and a
	// Das–Bhuyan workload.
	body := `{"scenarios":[
		{"network":{"scheme":"kclass","n":16,"b":4,"classSizes":[2,6,8]},"model":{"kind":"unif"},"r":1.0},
		{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"dasbhuyan","q":0.7},"r":0.5}
	]}`
	rec := postJSON(t, h, "/v1/batch", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("cold batch X-Cache = %q", got)
	}
	for _, it := range decodeBatch(t, rec.Body.Bytes()).Items {
		if it.Error != nil || it.Analysis == nil {
			t.Fatalf("item failed: %+v", it)
		}
	}
	rec = postJSON(t, h, "/v1/batch", body)
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat batch X-Cache = %q", got)
	}
}

// TestBatchSharesCacheWithAnalyze: the batch path and /v1/analyze key
// identically, including across spelled-out vs omitted defaults.
func TestBatchSharesCacheWithAnalyze(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/analyze",
		`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}`)
	if rec.Code != 200 {
		t.Fatalf("analyze status %d: %s", rec.Code, rec.Body)
	}
	// Same configuration, defaults spelled out, via batch.
	rec = postJSON(t, h, "/v1/batch", `{"scenarios":[
		{"network":{"scheme":"full","n":16,"m":16,"b":8},
		 "model":{"kind":"hier","clusters":4,"aFavorite":0.6,"aCluster":0.3,"aRemote":0.1},
		 "r":1.0,"op":"analyze"}
	]}`)
	b := decodeBatch(t, rec.Body.Bytes())
	if !b.Items[0].Cached {
		t.Errorf("batch item missed the cache warmed by /v1/analyze: %+v", b.Items[0])
	}
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q", got)
	}
}

func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/batch", `{"scenarios":[]}`); rec.Code != 400 {
		t.Errorf("empty list status %d", rec.Code)
	}
	// Unknown op is a per-request 200 with a per-item error.
	rec := postJSON(t, h, "/v1/batch", `{"scenarios":[
		{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"unif"},"r":1.0,"op":"optimize"}
	]}`)
	if rec.Code != 200 {
		t.Fatalf("bad-op batch status %d: %s", rec.Code, rec.Body)
	}
	b := decodeBatch(t, rec.Body.Bytes())
	if b.Items[0].Error == nil || b.Items[0].Error.Code != "invalid_request" {
		t.Errorf("bad op error = %+v", b.Items[0].Error)
	}
	// Oversized batch rejected up front.
	var sb strings.Builder
	sb.WriteString(`{"scenarios":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"network":{"scheme":"full","n":4,"b":2},"model":{"kind":"unif"},"r":1.0}`)
	}
	sb.WriteString(`]}`)
	if rec := postJSON(t, h, "/v1/batch", sb.String()); rec.Code != 400 {
		t.Errorf("oversized batch status %d: %s", rec.Code, rec.Body)
	}
}

// TestBatchCanceledMidFlight is the regression test for the discarded
// worker-pool error: a request context canceled mid-batch used to return
// HTTP 200 with zero-valued items (Index 0, no error field). It must be
// classified and propagated like every other handler — 503 "canceled".
func TestBatchCanceledMidFlight(t *testing.T) {
	var started atomic.Int64
	s := newTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			started.Add(1)
			<-ctx.Done() // hold every item until the request dies
			return nil, ctx.Err()
		}, nil),
	})
	h := s.Handler()

	// Four distinct scenarios so no two items share a singleflight key.
	body := `{"scenarios":[
		{"network":{"scheme":"full","n":8,"b":1},"model":{"kind":"unif"},"r":1.0},
		{"network":{"scheme":"full","n":8,"b":2},"model":{"kind":"unif"},"r":1.0},
		{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"unif"},"r":1.0},
		{"network":{"scheme":"full","n":8,"b":8},"model":{"kind":"unif"},"r":1.0}
	]}`
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	deadline := time.After(5 * time.Second)
	for started.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no batch item started")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled batch = %d, want 503; body: %s", rec.Code, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, rec.Body.String())
	}
	if er.Error.Code != "canceled" {
		t.Errorf("error code = %q, want canceled", er.Error.Code)
	}
	if strings.Contains(rec.Body.String(), `"items"`) {
		t.Errorf("canceled batch still shipped items: %s", rec.Body.String())
	}
}

// TestBatchOpInference: the op field defaults by the presence of a sim
// block.
func TestBatchOpInference(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/batch", `{"scenarios":[
		{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"unif"},"r":1.0},
		{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"unif"},"r":1.0,"sim":{"cycles":400}},
		{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"hotspot","hotFraction":0.5},"r":1.0,
		 "sim":{"cycles":400}}
	]}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	b := decodeBatch(t, rec.Body.Bytes())
	if b.Items[0].Op != "analyze" || b.Items[1].Op != "simulate" {
		t.Errorf("inferred ops = %q, %q", b.Items[0].Op, b.Items[1].Op)
	}
	// Hotspot is sim-only and works through batch.
	if b.Items[2].Error != nil || b.Items[2].Simulation == nil {
		t.Errorf("hotspot item = %+v", b.Items[2])
	}
}
