package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"multibus/internal/compute"
)

// fakeCluster is a scriptable ClusterControl for handler tests: the
// service seam is exercised without booting real cluster instances.
type fakeCluster struct {
	mu       sync.Mutex
	version  uint64
	states   map[string]string
	applyErr error
	applied  []string
	leaves   int
}

func (f *fakeCluster) Apply(op, peer string) (uint64, []string, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.applyErr != nil {
		return 0, nil, false, f.applyErr
	}
	f.applied = append(f.applied, op+" "+peer)
	return f.version, []string{"http://seed", peer}, true, nil
}
func (f *fakeCluster) MemberStates() map[string]string { return f.states }
func (f *fakeCluster) Leave(context.Context) {
	f.mu.Lock()
	f.leaves++
	f.mu.Unlock()
}

// doForwarded sends a request carrying the hop-guard header — the only
// credential the cluster control plane accepts.
func doForwarded(t *testing.T, h http.Handler, method, path, body, from string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(compute.ForwardedHeader, from)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func errCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), err)
	}
	return env.Error.Code
}

// TestReadyzStandalone pins the liveness/readiness split for the
// no-cluster deployment: ready immediately, not ready once draining —
// while /healthz keeps its own draining semantics.
func TestReadyzStandalone(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec
	}
	if rec := get(); rec.Code != http.StatusOK {
		t.Fatalf("standalone /readyz = %d: %s", rec.Code, rec.Body)
	}
	if !s.ClusterReady() {
		t.Error("ClusterReady() = false on a standalone server")
	}
	s.BeginDrain()
	rec := get()
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "draining" {
		t.Errorf("draining /readyz = %d %s, want 503 draining", rec.Code, rec.Body)
	}
}

// TestReadyzClusterGate pins the startup gate: a cluster instance
// answers 503 not_ready until StartCluster runs, and StartCluster opens
// the gate before it returns — liveness (/healthz) is green the whole
// time.
func TestReadyzClusterGate(t *testing.T) {
	fc := &fakeCluster{states: map[string]string{}}
	s := newTestServer(t, Options{Cluster: fc})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "not_ready" {
		t.Fatalf("pre-start /readyz = %d %s, want 503 not_ready", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("liveness went red during the not-ready window: /healthz = %d", rec.Code)
	}

	if s.ClusterReady() {
		t.Fatal("ClusterReady() = true before StartCluster")
	}
	s.StartCluster(context.Background())
	if !s.ClusterReady() {
		t.Fatal("readiness gate still closed after StartCluster returned")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-start /readyz = %d: %s", rec.Code, rec.Body)
	}
}

// TestClusterGuardOrder pins the control-plane authentication contract:
// without the hop-guard header the membership endpoint is 403
// forbidden — even on instances that do run cluster mode — and with the
// header a standalone instance answers 404 not_found. The guard refuses
// before it reveals.
func TestClusterGuardOrder(t *testing.T) {
	clustered := newTestServer(t, Options{Cluster: &fakeCluster{states: map[string]string{}}}).Handler()
	standalone := newTestServer(t, Options{}).Handler()
	const path = "/v1/cluster/membership"
	rec := httptest.NewRecorder()
	clustered.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}")))
	if rec.Code != http.StatusForbidden || errCode(t, rec) != "forbidden" {
		t.Errorf("POST %s without hop header = %d %s, want 403 forbidden", path, rec.Code, rec.Body)
	}
	rec = doForwarded(t, standalone, http.MethodPost, path, "{}", "http://peer")
	if rec.Code != http.StatusNotFound || errCode(t, rec) != "not_found" {
		t.Errorf("POST %s on standalone = %d %s, want 404 not_found", path, rec.Code, rec.Body)
	}
}

// TestMembershipApply drives POST /v1/cluster/membership through the
// fake: the applied view comes back as the response body, and apply
// errors surface as invalid_request.
func TestMembershipApply(t *testing.T) {
	fc := &fakeCluster{version: 7, states: map[string]string{"http://seed": "alive"}}
	h := newTestServer(t, Options{Cluster: fc}).Handler()

	rec := doForwarded(t, h, http.MethodPost, "/v1/cluster/membership",
		`{"op":"join","peer":"http://newcomer"}`, "http://newcomer")
	if rec.Code != http.StatusOK {
		t.Fatalf("membership apply = %d: %s", rec.Code, rec.Body)
	}
	var body compute.MembershipView
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Version != 7 || !body.Changed || len(body.Peers) != 2 {
		t.Errorf("membership view = %+v, want version 7, changed, 2 peers", body)
	}
	if body.States["http://seed"] != "alive" {
		t.Errorf("states missing the seed: %v", body.States)
	}
	if len(fc.applied) != 1 || fc.applied[0] != "join http://newcomer" {
		t.Errorf("applied = %v", fc.applied)
	}

	fc.applyErr = errors.New("unknown membership op")
	rec = doForwarded(t, h, http.MethodPost, "/v1/cluster/membership",
		`{"op":"restart","peer":"x"}`, "http://newcomer")
	if rec.Code != http.StatusBadRequest || errCode(t, rec) != "invalid_request" {
		t.Errorf("bad op = %d %s, want 400 invalid_request", rec.Code, rec.Body)
	}
}

// TestLeaveClusterAnnouncesDeparture pins the graceful-departure path:
// LeaveCluster hands off to the membership layer's Leave exactly once,
// and is a no-op on a standalone instance.
func TestLeaveClusterAnnouncesDeparture(t *testing.T) {
	fc := &fakeCluster{states: map[string]string{}}
	newTestServer(t, Options{Cluster: fc}).LeaveCluster(context.Background())
	if fc.leaves != 1 {
		t.Errorf("LeaveCluster called Leave %d times, want 1", fc.leaves)
	}
	newTestServer(t, Options{}).LeaveCluster(context.Background())
}
