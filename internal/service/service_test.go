package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multibus/internal/analytic"
	"multibus/internal/compute"
	"multibus/internal/scenario"
	"multibus/internal/sim"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const analyzeBody = `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}`

func TestHealthz(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz body = %q", rec.Body.String())
	}
}

func TestAnalyzeColdAndCachedAreByteIdentical(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	cold := postJSON(t, h, "/v1/analyze", analyzeBody)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold analyze = %d: %s", cold.Code, cold.Body.String())
	}
	if got := cold.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", got)
	}
	warm := postJSON(t, h, "/v1/analyze", analyzeBody)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm analyze = %d: %s", warm.Code, warm.Body.String())
	}
	if got := warm.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("cache hit differs from cold response:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	// Sanity: the numbers mean something — full 16×16×8 under the
	// paper's workload at r=1 has bandwidth within (0, 8].
	var resp struct {
		Bandwidth float64 `json:"bandwidth"`
	}
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bandwidth <= 0 || resp.Bandwidth > 8 {
		t.Errorf("bandwidth = %v, want in (0, 8]", resp.Bandwidth)
	}
}

func TestConcurrentIdenticalAnalyzeComputesOnce(t *testing.T) {
	var computations atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			computations.Add(1)
			<-release // hold the flight open so every request piles on
			return compute.Local().Analyze(ctx, b)
		}, nil),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 16
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Wait for the first request to enter the computation, give the rest
	// a moment to join its flight, then release.
	deadline := time.After(5 * time.Second)
	for computations.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no computation started")
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Errorf("%d identical concurrent requests ran the computation %d times, want exactly 1", clients, n)
	}
	for i := 1; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d got status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d body differs: %s vs %s", i, bodies[i], bodies[0])
		}
	}
	stats := s.Cache().Stats()
	if stats.SharedFlights != clients-1 {
		t.Errorf("SharedFlights = %d, want %d", stats.SharedFlights, clients-1)
	}
}

func TestSimulateCachedSecondCall(t *testing.T) {
	var computations atomic.Int64
	s := newTestServer(t, Options{
		Backend: compute.NewLocal(nil, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			computations.Add(1)
			return sim.RunContext(ctx, cfg)
		}),
	})
	h := s.Handler()
	body := `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.8,"sim":{"cycles":2000,"seed":7}}`
	cold := postJSON(t, h, "/v1/simulate", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold simulate = %d: %s", cold.Code, cold.Body.String())
	}
	// Spelling out the defaults must land on the same cache key.
	explicit := `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.8,"sim":{"cycles":2000,"warmup":200,"batches":20,"seed":7}}`
	warm := postJSON(t, h, "/v1/simulate", explicit)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm simulate = %d: %s", warm.Code, warm.Body.String())
	}
	if n := computations.Load(); n != 1 {
		t.Errorf("simulation computed %d times, want 1 (default-normalized key mismatch?)", n)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("cached simulate differs from cold:\n%s\n%s", cold.Body, warm.Body)
	}
	if got := warm.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", got)
	}
}

func TestSweepEndpointAndCrossRequestMemo(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	body := `{"ns":[8,16],"bs":[2,4,8],"rs":[0.5,1.0],"schemes":["full","single","crossbar"]}`
	first := postJSON(t, h, "/v1/sweep", body)
	if first.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", first.Code, first.Body.String())
	}
	var resp struct {
		Points []struct {
			Scheme    string  `json:"scheme"`
			Bandwidth float64 `json:"bandwidth"`
		} `json:"points"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) == 0 {
		t.Fatal("sweep returned no points")
	}
	// Nothing in this grid is skipped; the list is still an array.
	if !bytes.HasSuffix(bytes.TrimSpace(first.Body.Bytes()), []byte(`,"skipped":[]}`)) {
		t.Errorf("sweep with no skips does not end in an empty skipped array: %s", first.Body.String())
	}
	missesAfterFirst := s.Cache().Stats().Misses

	second := postJSON(t, h, "/v1/sweep", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second sweep = %d", second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("repeated sweep returned different bytes")
	}
	if misses := s.Cache().Stats().Misses; misses != missesAfterFirst {
		t.Errorf("repeated sweep recomputed points: misses %d → %d", missesAfterFirst, misses)
	}
}

// gridCapBody is a compact sweep request: ns 1..64, bs 1..64, the
// given number of rates stepping down by 0.05 from 1.0, and the "full"
// scheme. It estimates 64×64×rates points, although only the B ≤ N
// half of the grid is evaluable.
func gridCapBody(rates int) string {
	axis := func(n int, at func(i int) string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = at(i)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	ints := axis(64, func(i int) string { return strconv.Itoa(i + 1) })
	rs := axis(rates, func(i int) string { return strconv.FormatFloat(1-0.05*float64(i), 'f', 2, 64) })
	return fmt.Sprintf(`{"ns":%s,"bs":%s,"rs":%s,"schemes":["full"]}`, ints, ints, rs)
}

// TestSweepGridOverCapRefused: a grid estimated over maxSweepPoints
// (64×64×17 = 69632) is a 400 invalid_request on both sweep surfaces,
// refused before admission and enumeration — no job is created and no
// grid point is evaluated.
func TestSweepGridOverCapRefused(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	sweepBody := gridCapBody(17)
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep", sweepBody},
		{"/v1/jobs", `{"sweep":` + sweepBody + `}`},
	} {
		rec := postJSON(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s over the grid cap = %d, want 400", tc.path, rec.Code)
		} else if code := errCode(t, rec); code != "invalid_request" {
			t.Errorf("POST %s over the grid cap: code %q, want invalid_request", tc.path, code)
		}
	}
	if n := len(s.Jobs().Jobs()); n != 0 {
		t.Errorf("%d jobs created by a refused sweep, want 0", n)
	}
	// No grid point ran: a point evaluation is a memo lookup, so the
	// cache saw none.
	if st := s.Cache().Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("cache saw %d lookups after refused sweeps, want 0", st.Hits+st.Misses)
	}
}

// TestSweepGridAtCapServed: a grid estimated at exactly maxSweepPoints
// (64×64×16 = 65536) is within the cap and answers 200.
func TestSweepGridAtCapServed(t *testing.T) {
	rec := postJSON(t, newTestServer(t, Options{}).Handler(), "/v1/sweep", gridCapBody(16))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/sweep at the grid cap = %d %s, want 200", rec.Code, rec.Body)
	}
	var body sweepBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	// Full wiring is valid for every B ≤ N: 64·65/2 (N, B) pairs × 16 rates.
	if want := 64 * 65 / 2 * 16; len(body.Points) != want {
		t.Errorf("at-cap sweep answered %d points, want %d", len(body.Points), want)
	}
}

// TestWorkCapsRefused: a network over the connection cap and a
// simulation over the simulated-work cap are 400 invalid_request on
// every route that accepts them, before any compute; the benchmarked
// large shapes stay legal.
func TestWorkCapsRefused(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	const (
		bigNet = `{"network":{"scheme":"full","n":16384,"b":8192},"model":{"kind":"uniform"},"r":0.5}`
		bigSim = `{"network":{"scheme":"full","n":16,"b":4},"model":{"kind":"uniform"},"r":0.5,"sim":{"cycles":4611686018427387904}}`
		// 16 × (1 525 000 + 15 250 000) = 268 400 000 fits under 2^28;
		// 17 processors do not.
		edgeSim = `{"network":{"scheme":"full","n":17,"b":4},"model":{"kind":"uniform"},"r":0.5,"sim":{"cycles":15250000,"warmup":1525000}}`
	)
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", bigNet},
		{"/v1/simulate", bigSim},
		{"/v1/simulate", edgeSim},
		{"/v1/sweep", `{"ns":[16384],"bs":[8192],"rs":[0.5],"schemes":["full"]}`},
		{"/v1/sweep", `{"ns":[16,64],"bs":[4],"rs":[0.5],"schemes":["full"],"withSim":true,"simCycles":4000000}`},
		{"/v1/jobs", `{"sweep":{"ns":[16],"bs":[4],"rs":[0.5],"schemes":["full"],"withSim":true,"simCycles":100000000}}`},
	} {
		rec := postJSON(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest || errCode(t, rec) != "invalid_request" {
			t.Errorf("POST %s %s = %d %s, want 400 invalid_request", tc.path, tc.body, rec.Code, rec.Body)
		}
	}
	if st := s.Cache().Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("refused bodies reached the cache %d times, want 0", st.Hits+st.Misses)
	}
	// Inside a batch and a shard, an over-cap item is a per-item 400.
	rec := postJSON(t, h, "/v1/batch", `{"scenarios":[`+bigSim+`,`+analyzeBody+`]}`)
	var batch struct {
		Items []struct {
			Error *apiError `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != http.StatusOK || len(batch.Items) != 2 {
		t.Fatalf("batch = %d %s", rec.Code, rec.Body)
	}
	if e := batch.Items[0].Error; e == nil || e.Code != "invalid_request" || batch.Items[1].Error != nil {
		t.Errorf("batch items = %s, want invalid_request then a result", rec.Body)
	}
	rec = postJSON(t, h, "/v1/cluster/sweep", `{"points":[{"scenario":`+bigSim+`,"axis":"full","model":"uniform","withSim":true}]}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"code":"invalid_request"`) {
		t.Errorf("over-cap shard point = %d %s, want an invalid_request record", rec.Code, rec.Body)
	}

	// The edge itself is checked without running a quarter-billion
	// processor-cycles.
	if err := checkSimWork(1525000, 15250000, 16); err != nil {
		t.Errorf("simulation at the work limit refused: %v", err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", `{"network":{"scheme":"full","n":512,"m":512,"b":64},"model":{"kind":"uniform"},"r":0.5}`},
		{"/v1/sweep", `{"ns":[16],"bs":[4,8],"rs":[0.5,1],"schemes":["full","single","partial","kclasses"],"hierarchical":true,"withSim":true,"simCycles":200,"seed":3}`},
	} {
		if rec := postJSON(t, h, tc.path, tc.body); rec.Code != http.StatusOK {
			t.Errorf("POST %s %s = %d %s, want 200", tc.path, tc.body, rec.Code, rec.Body)
		}
	}
}

func TestValidationMapsToTyped400(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	cases := []struct {
		name, path, body string
		wantCode         string
		bodyShape        bool
	}{
		{"unknown scheme", "/v1/analyze", `{"network":{"scheme":"mesh","n":8,"b":4},"model":{"kind":"uniform"},"r":1}`, "invalid_request", false},
		{"missing scheme", "/v1/analyze", `{"network":{"n":8,"b":4},"model":{"kind":"uniform"},"r":1}`, "invalid_request", false},
		{"bad dimensions", "/v1/analyze", `{"network":{"scheme":"full","n":0,"b":4},"model":{"kind":"uniform"},"r":1}`, "invalid_request", false},
		{"bad grouping", "/v1/analyze", `{"network":{"scheme":"partial","n":8,"b":4,"groups":3},"model":{"kind":"uniform"},"r":1}`, "invalid_request", false},
		{"unknown model", "/v1/analyze", `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"zipf"},"r":1}`, "invalid_request", false},
		{"rate out of range", "/v1/analyze", `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":1.5}`, "invalid_request", false},
		{"bad hier clusters", "/v1/analyze", `{"network":{"scheme":"full","n":9,"b":4},"model":{"kind":"hier"},"r":1}`, "invalid_request", false},
		{"bad q", "/v1/analyze", `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"dasbhuyan","q":1.5},"r":1}`, "invalid_request", false},
		{"bad sim cycles", "/v1/simulate", `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":1,"sim":{"cycles":-5}}`, "invalid_request", false},
		{"bad sim batches", "/v1/simulate", `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":1,"sim":{"batches":-1}}`, "invalid_request", false},
		{"sweep empty grid", "/v1/sweep", `{"ns":[],"bs":[4],"rs":[1],"schemes":["full"]}`, "invalid_request", false},
		{"sweep bad scheme", "/v1/sweep", `{"ns":[8],"bs":[4],"rs":[1],"schemes":["hypercube"]}`, "invalid_request", false},
		// Body-shape failures classify as invalid_request under the
		// unified envelope, with no pre-v1 legacy_code alongside.
		{"unknown field", "/v1/analyze", `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":1,"frobnicate":true}`, "invalid_request", true},
		{"malformed json", "/v1/analyze", `{"network":`, "invalid_request", true},
		{"trailing garbage", "/v1/analyze", analyzeBody + `{"again":true}`, "invalid_request", true},
		{"trailing brace", "/v1/analyze", analyzeBody + `}`, "invalid_request", true},
		{"trailing bracket", "/v1/analyze", analyzeBody + `]`, "invalid_request", true},
		{"trailing word", "/v1/analyze", analyzeBody + ` x`, "invalid_request", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, h, tc.path, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", rec.Code, rec.Body.String())
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body is not JSON: %v: %s", err, rec.Body.String())
			}
			if er.Error.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q (message: %s)", er.Error.Code, tc.wantCode, er.Error.Message)
			}
			if tc.bodyShape {
				assertNoLegacyCode(t, rec.Body.Bytes())
			}
			if er.Error.Retryable {
				t.Error("client-fault 400 marked retryable")
			}
			// Error responses must never be cached by intermediaries: a
			// stored 4xx/5xx would keep failing a client after the cause
			// is gone.
			if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
				t.Errorf("Cache-Control = %q, want no-store on error responses", cc)
			}
		})
	}
}

// assertNoLegacyCode fails when an error envelope still carries the
// pre-v1 legacy_code key, whose deprecation window has closed.
func assertNoLegacyCode(t *testing.T, body []byte) {
	t.Helper()
	var env struct {
		Error map[string]json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, body)
	}
	if v, ok := env.Error["legacy_code"]; ok {
		t.Errorf("error envelope carries legacy_code %s; body: %s", v, body)
	}
}

func TestBodySizeLimit(t *testing.T) {
	h := newTestServer(t, Options{MaxBodyBytes: 64}).Handler()
	big := `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0,` +
		`"pad":"` + strings.Repeat("x", 200) + `"}`
	rec := postJSON(t, h, "/v1/analyze", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413; %s", rec.Code, rec.Body.String())
	}
	assertNoLegacyCode(t, rec.Body.Bytes())
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store on error responses", cc)
	}
}

func TestRequestDeadlineMapsTo504(t *testing.T) {
	s := newTestServer(t, Options{Timeout: time.Nanosecond})
	h := s.Handler()
	body := `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"uniform"},"r":1,"sim":{"cycles":1000000}}`
	rec := postJSON(t, h, "/v1/simulate", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out simulate = %d, want 504; %s", rec.Code, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "deadline_exceeded" {
		t.Errorf("error code = %q, want deadline_exceeded", er.Error.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/analyze", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze = %d, want 405", rec.Code)
	}
}

func TestMetricsAndPprofExposed(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	postJSON(t, h, "/v1/analyze", analyzeBody)
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "mbserve_requests") {
		t.Error("/metrics does not expose mbserve_requests")
	}
}

func TestClassifyNoClosedForm(t *testing.T) {
	// The API cannot currently express an unclassifiable wiring, but the
	// mapping must hold for when Custom networks are exposed.
	status, code := classify(fmt.Errorf("wrapped: %w", analytic.ErrNoClosedForm))
	if status != http.StatusUnprocessableEntity || code != "no_closed_form" {
		t.Errorf("classify(ErrNoClosedForm) = (%d, %s), want (422, no_closed_form)", status, code)
	}
}

func TestCacheEvictionBound(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: 4})
	h := s.Handler()
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"network":{"scheme":"full","n":8,"b":%d},"model":{"kind":"uniform"},"r":1.0}`, i%8+1)
		if rec := postJSON(t, h, "/v1/analyze", body); rec.Code != http.StatusOK {
			t.Fatalf("analyze b=%d: %d", i%8+1, rec.Code)
		}
	}
	if n := s.Cache().Len(); n > 4 {
		t.Errorf("cache grew to %d entries, capacity 4", n)
	}
}
