package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multibus/internal/rng"
	"multibus/internal/sim"
)

// Transport is the peer-wire counterpart of Injector: a seeded,
// deterministic http.RoundTripper that perturbs forwarded requests with
// drops (synthesized transport errors), latency, and 5xx responses
// before they reach the real transport. The cluster layer wires it
// under cluster.Client, so membership eviction tests drive peer
// failures on demand instead of killing processes and racing timers.
//
// Determinism follows the Injector's rule: every RoundTrip draws the
// same fixed number of variates (three) from one seeded PCG stream, so
// a given (seed, request sequence) yields the same faults every run
// regardless of which fault types are enabled.
type Transport struct {
	mu    sync.Mutex
	cfg   TransportConfig
	rng   *rng.Rand
	inner http.RoundTripper

	calls, drops, errs, delays atomic.Int64
}

// TransportConfig describes one peer-wire fault profile. Rates are
// probabilities in [0, 1]; a zero config injects nothing.
type TransportConfig struct {
	// Seed selects the deterministic decision stream (0 means seed 1,
	// via the repo-wide sim.EffectiveSeed rule).
	Seed int64
	// DropRate is the probability a request fails with a synthesized
	// transport error — the wire equivalent of a dead peer.
	DropRate float64
	// LatencyRate is the probability a request sleeps Latency first.
	LatencyRate float64
	// Latency is the injected delay (context-aware).
	Latency time.Duration
	// ErrorRate is the probability the request is answered by a
	// synthesized 503 carrying the v1 error envelope, without ever
	// reaching the peer.
	ErrorRate float64
	// Match, when non-nil, restricts injection to requests it accepts
	// (e.g. by destination peer); others pass through undisturbed and
	// draw nothing, so per-peer fault profiles stay deterministic.
	Match func(*http.Request) bool
}

func (c TransportConfig) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"dropRate", c.DropRate}, {"latencyRate", c.LatencyRate}, {"errorRate", c.ErrorRate}} {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("chaos: latency = %v (must be ≥ 0)", c.Latency)
	}
	return nil
}

// TransportStats counts the faults a Transport has delivered.
type TransportStats struct {
	Calls  int64 // injected (matched) round trips
	Drops  int64 // synthesized transport errors
	Errors int64 // synthesized 503 responses
	Delays int64 // latency injections
}

// droppedError is the synthesized transport failure; it wraps
// ErrInjected so tests can tell synthetic drops from real dial errors.
type droppedError struct{ url string }

func (e *droppedError) Error() string { return fmt.Sprintf("chaos: dropped request to %s", e.url) }
func (e *droppedError) Unwrap() error { return ErrInjected }

// NewTransport builds a fault-injecting RoundTripper over inner (nil
// means http.DefaultTransport).
func NewTransport(cfg TransportConfig, inner http.RoundTripper) (*Transport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{cfg: cfg, rng: sim.NewSeededRand(cfg.Seed), inner: inner}, nil
}

// Configure swaps the fault profile and reseeds the decision stream —
// tests flip the wire from healthy to partitioned mid-run. Invalid
// configs are rejected with the profile unchanged.
func (t *Transport) Configure(cfg TransportConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	t.mu.Lock()
	t.cfg = cfg
	t.rng = sim.NewSeededRand(cfg.Seed)
	t.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the delivered-fault counters.
func (t *Transport) Stats() TransportStats {
	return TransportStats{
		Calls:  t.calls.Load(),
		Drops:  t.drops.Load(),
		Errors: t.errs.Load(),
		Delays: t.delays.Load(),
	}
}

// RoundTrip implements http.RoundTripper: latency first (context-aware),
// then the drop, then the synthesized 503 — each decided by its own
// variate, three draws per matched request regardless of configuration.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	cfg := t.cfg
	if cfg.Match != nil && !cfg.Match(req) {
		inner := t.inner
		t.mu.Unlock()
		return inner.RoundTrip(req)
	}
	uLatency := t.rng.Float64()
	uDrop := t.rng.Float64()
	uErr := t.rng.Float64()
	inner := t.inner
	t.mu.Unlock()
	t.calls.Add(1)

	if cfg.LatencyRate > 0 && uLatency < cfg.LatencyRate && cfg.Latency > 0 {
		t.delays.Add(1)
		timer := time.NewTimer(cfg.Latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if cfg.DropRate > 0 && uDrop < cfg.DropRate {
		t.drops.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &droppedError{url: req.URL.String()}
	}
	if cfg.ErrorRate > 0 && uErr < cfg.ErrorRate {
		t.errs.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		// The synthesized response is a faithful v1 envelope so client
		// error parsing exercises the same path as a real 503.
		body := `{"error":{"code":"internal_error","message":"chaos: injected peer failure","retryable":true}}` + "\n"
		return &http.Response{
			StatusCode:    http.StatusServiceUnavailable,
			Status:        strconv.Itoa(http.StatusServiceUnavailable) + " " + http.StatusText(http.StatusServiceUnavailable),
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}, "Cache-Control": []string{"no-store"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return inner.RoundTrip(req)
}
