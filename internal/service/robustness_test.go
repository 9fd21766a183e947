package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multibus/internal/compute"
	"multibus/internal/scenario"
)

func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestOversizedRequestsDoNotLockOutRoute: requests whose own size runs
// them past the deadline fail alone. Five simulate bodies too long for
// a 30ms budget (2·10⁷ cycles, within the simulated-work cap) each
// answer 504 deadline_exceeded, and the next valid small simulate on
// the same route still answers 200 — no client can refuse the route to
// every other client by timing itself out.
func TestOversizedRequestsDoNotLockOutRoute(t *testing.T) {
	h := newTestServer(t, Options{Timeout: 30 * time.Millisecond}).Handler()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":1,"sim":{"cycles":20000000,"seed":%d}}`, i+1)
		rec := postJSON(t, h, "/v1/simulate", body)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusGatewayTimeout ||
			err != nil || er.Error.Code != "deadline_exceeded" {
			t.Fatalf("oversized simulate %d = %d %s, want 504 deadline_exceeded", i, rec.Code, rec.Body.String())
		}
	}
	small := `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":1,"sim":{"cycles":200}}`
	if rec := postJSON(t, h, "/v1/simulate", small); rec.Code != http.StatusOK {
		t.Fatalf("valid simulate after oversized ones = %d, want 200; %s", rec.Code, rec.Body.String())
	}
}

// TestComputeFailureIsNotCachedAndWarmKeyHits: a miss whose compute
// fails answers 500 internal_error and leaves nothing in the cache, so
// the identical request recomputes and succeeds once compute recovers.
// All along, a key warmed beforehand answers 200 X-Cache: hit with its
// cold bytes: hits are served from memory and never reach compute.
func TestComputeFailureIsNotCachedAndWarmKeyHits(t *testing.T) {
	var failing atomic.Bool
	var computations atomic.Int64
	s := newTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			computations.Add(1)
			if failing.Load() {
				return nil, errors.New("compute backend failed")
			}
			return compute.Local().Analyze(ctx, b)
		}, nil),
	})
	h := s.Handler()

	warm := postJSON(t, h, "/v1/analyze", analyzeBody)
	if warm.Code != http.StatusOK || warm.Header().Get("X-Cache") != "miss" {
		t.Fatalf("warm-up = %d (X-Cache %q), want 200 miss", warm.Code, warm.Header().Get("X-Cache"))
	}
	coldBody := warm.Body.Bytes()
	assertWarmHit := func(stage string) {
		t.Helper()
		rec := postJSON(t, h, "/v1/analyze", analyzeBody)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s: warmed key = %d (X-Cache %q), want 200 hit; %s",
				stage, rec.Code, rec.Header().Get("X-Cache"), rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), coldBody) {
			t.Fatalf("%s: warmed key body differs from its cold answer:\ncold: %s\nhit:  %s",
				stage, coldBody, rec.Body.Bytes())
		}
	}

	failing.Store(true)
	const missing = `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":0.5}`
	const attempts = 6
	for i := 0; i < attempts; i++ {
		rec := postJSON(t, h, "/v1/analyze", missing)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError ||
			err != nil || er.Error.Code != "internal_error" {
			t.Fatalf("failing miss %d = %d %s, want 500 internal_error", i, rec.Code, rec.Body.String())
		}
		assertWarmHit(fmt.Sprintf("after failure %d", i))
	}
	// Every attempt reached compute: a failure is never cached, and the
	// warmed key's hits never got that far.
	if got := computations.Load(); got != 1+attempts {
		t.Errorf("computations = %d, want %d (warm-up plus one per failing attempt)", got, 1+attempts)
	}

	failing.Store(false)
	if rec := postJSON(t, h, "/v1/analyze", missing); rec.Code != http.StatusOK ||
		rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("miss after recovery = %d (X-Cache %q), want 200 miss; %s",
			rec.Code, rec.Header().Get("X-Cache"), rec.Body.String())
	}
	assertWarmHit("after recovery")
	if got := metricValue(t, scrapeMetrics(t, h), `mbserve_cache_requests_total{result="hit",route="analyze"}`); got != attempts+1 {
		t.Errorf("analyze hits = %v, want %d (one per warmed-key check)", got, attempts+1)
	}
}

// TestShedUnderSaturatingBurst is the overload acceptance scenario:
// admission limit 1, no queue, one slow compute holding the slot. Every
// concurrent distinct request is shed with 429 + Retry-After while
// in-flight compute stays at the limit (inflight gauge and a direct
// concurrency counter both assert it).
func TestShedUnderSaturatingBurst(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	var inCompute, maxInCompute atomic.Int64
	s := newTestServer(t, Options{
		AdmissionLimit: 1,
		QueueDepth:     -1, // no queue: saturated means shed
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			cur := inCompute.Add(1)
			for {
				prev := maxInCompute.Load()
				if cur <= prev || maxInCompute.CompareAndSwap(prev, cur) {
					break
				}
			}
			defer inCompute.Add(-1)
			enterOnce.Do(func() { close(entered) })
			<-release
			return &compute.Analysis{Bandwidth: 1}, nil
		}, nil),
	})
	h := s.Handler()

	slowBody := `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"unif"},"r":1.0}`
	slowDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(slowBody))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		slowDone <- rec
	}()
	<-entered // the slot is held

	const burst = 7
	for i := 0; i < burst; i++ {
		body := fmt.Sprintf(`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"unif"},"r":0.%d}`, i+1)
		rec := postJSON(t, h, "/v1/analyze", body)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("burst request %d = %d, want 429; %s", i, rec.Code, rec.Body.String())
		}
		ra := rec.Header().Get("Retry-After")
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("burst request %d Retry-After = %q, want integer seconds ≥ 1", i, ra)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("shed response Cache-Control = %q, want no-store", cc)
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != "overloaded" {
			t.Fatalf("shed error body = %s (err %v), want code overloaded", rec.Body.String(), err)
		}
	}

	// While saturated, the inflight gauge reads exactly the limit.
	mBody := scrapeMetrics(t, h)
	if got := metricValue(t, mBody, "mbserve_inflight_compute"); got != 1 {
		t.Errorf("inflight gauge under saturation = %v, want 1 (the admission limit)", got)
	}
	if got := metricValue(t, mBody, `mbserve_shed_total{route="analyze"}`); got != burst {
		t.Errorf("shed counter = %v, want %d", got, burst)
	}

	close(release)
	if rec := <-slowDone; rec.Code != http.StatusOK {
		t.Fatalf("admitted request = %d, want 200; %s", rec.Code, rec.Body.String())
	}
	if got := maxInCompute.Load(); got > 1 {
		t.Errorf("max concurrent compute = %d, want ≤ 1 (the admission limit)", got)
	}
	if got := s.adm.Inflight(); got != 0 {
		t.Errorf("inflight after completion = %d, want 0", got)
	}
}

// TestQueueDelaysInsteadOfShedding: with queue depth available, a
// request that arrives while the semaphore is full waits its turn and
// succeeds — and its wait shows up in the queue-wait histogram.
func TestQueueDelaysInsteadOfShedding(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	s := newTestServer(t, Options{
		AdmissionLimit: 1,
		QueueDepth:     4,
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			enterOnce.Do(func() { close(entered) })
			<-release
			return &compute.Analysis{Bandwidth: b.Scenario.R}, nil
		}, nil),
	})
	h := s.Handler()

	first := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
			strings.NewReader(`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"unif"},"r":1.0}`))
		h.ServeHTTP(rec, req)
		first <- rec.Code
	}()
	<-entered

	second := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
			strings.NewReader(`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"unif"},"r":0.5}`))
		h.ServeHTTP(rec, req)
		second <- rec.Code
	}()
	waitForQueued(t, s.adm, 1)
	releaseOnce.Do(func() { close(release) })

	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request = %d", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Fatalf("queued request = %d, want 200 (waited, not shed)", code)
	}
	mBody := scrapeMetrics(t, h)
	if got := metricValue(t, mBody, "mbserve_queue_wait_seconds_count"); got < 2 {
		t.Errorf("queue wait histogram count = %v, want ≥ 2", got)
	}
}

// TestPanicRecoveryMiddleware (satellite): a panic in compute unwinds
// through the singleflight leader into the instrument middleware — the
// client gets a 500 internal_error, the panic counter ticks, and the
// server keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	var panicking atomic.Bool
	panicking.Store(true)
	s := newTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			if panicking.Load() {
				panic("injected compute panic")
			}
			return compute.Local().Analyze(ctx, b)
		}, nil),
	})
	h := s.Handler()

	rec := postJSON(t, h, "/v1/analyze", analyzeBody)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500; %s", rec.Code, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != "internal_error" {
		t.Fatalf("panic response body = %s, want internal_error", rec.Body.String())
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("panic response Cache-Control = %q, want no-store", cc)
	}
	if got := metricValue(t, scrapeMetrics(t, h), "mbserve_panics_total"); got != 1 {
		t.Errorf("mbserve_panics_total = %v, want 1", got)
	}
	// The server survives: compute recovers, same request, normal answer.
	panicking.Store(false)
	if rec := postJSON(t, h, "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
		t.Fatalf("request after recovered panic = %d, want 200; %s", rec.Code, rec.Body.String())
	}
}

// TestHealthzDraining (satellite): /healthz reports 200 until drain
// begins, then 503 draining — while in-flight requests still complete.
func TestHealthzDraining(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := newTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			close(entered)
			<-release
			return &compute.Analysis{Bandwidth: 1}, nil
		}, nil),
	})
	h := s.Handler()

	if rec := getPath(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", rec.Code)
	}

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(analyzeBody))
		h.ServeHTTP(rec, req)
		inflight <- rec
	}()
	<-entered

	s.BeginDrain()
	rec := getPath(h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503; %s", rec.Code, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != "draining" {
		t.Fatalf("draining body = %s, want code draining", rec.Body.String())
	}

	close(release)
	if got := <-inflight; got.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200; %s", got.Code, got.Body.String())
	}
}

// TestSweepCanceledMidFlightReturnsEnvelope pins the sweep twin of the
// batch mid-flight regression: a request that dies while the grid is
// evaluating must answer with the classified error envelope, never a
// 200 carrying an empty or partial points list.
func TestSweepCanceledMidFlightReturnsEnvelope(t *testing.T) {
	// Every grid point parks until its context ends, so the test cancels
	// while the grid is provably evaluating.
	backend := &parkingSweepBackend{Backend: compute.Local(), entered: make(chan struct{})}
	s := newTestServer(t, Options{Backend: backend})
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"ns":[8,16],"bs":[2,4],"rs":[0.5,1.0],"schemes":["full"]}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	<-backend.entered // a grid point is evaluating
	cancel()
	<-done

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled sweep = %d, want 503; body: %s", rec.Code, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, rec.Body.String())
	}
	if er.Error.Code != "canceled" {
		t.Errorf("error code = %q, want canceled", er.Error.Code)
	}
	if strings.Contains(rec.Body.String(), `"points"`) {
		t.Errorf("canceled sweep still shipped points: %s", rec.Body.String())
	}
}

// parkingSweepBackend is a compute backend whose sweep points block
// until their context ends; entered closes when the first one starts.
type parkingSweepBackend struct {
	compute.Backend
	entered   chan struct{}
	enterOnce sync.Once
}

func (b *parkingSweepBackend) SweepPoint(ctx context.Context, _ compute.PointJob) (compute.Point, error) {
	b.enterOnce.Do(func() { close(b.entered) })
	<-ctx.Done()
	return compute.Point{}, ctx.Err()
}
