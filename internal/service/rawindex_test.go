package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"multibus/internal/cache"
)

// Bodies valid on both single-scenario routes: an analyze body is also
// a simulate body that takes the simulator's defaults.
const (
	rawAnalyzeBody  = `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"hier"},"r":0.75}`
	rawSimulateBody = `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.8,"sim":{"cycles":2000,"seed":7}}`
)

// response is what a client sees of one answer.
type response struct {
	status      int
	body        string
	contentType string
	xcache      string
}

func respond(t *testing.T, h http.Handler, path, body string) response {
	t.Helper()
	rec := postJSON(t, h, path, body)
	return response{rec.Code, rec.Body.String(), rec.Header().Get("Content-Type"), rec.Header().Get("X-Cache")}
}

// TestRepeatedBodyAnsweredIdentically posts one body three times on each
// single-scenario route: the answers are byte-identical, the first is a
// miss, the second a key hit that attaches the body, and the third is
// answered from the raw-body index. A miss indexes nothing.
func TestRepeatedBodyAnsweredIdentically(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", rawAnalyzeBody},
		{"/v1/simulate", rawSimulateBody},
	} {
		t.Run(tc.path, func(t *testing.T) {
			s := newTestServer(t, Options{})
			h := s.Handler()
			var got [3]response
			for i := range got {
				got[i] = respond(t, h, tc.path, tc.body)
				if i == 0 && s.cache.RawLen() != 0 {
					t.Fatalf("a miss indexed its body: %d raw bodies", s.cache.RawLen())
				}
			}
			if got[0].status != http.StatusOK {
				t.Fatalf("%s = %d: %s", tc.path, got[0].status, got[0].body)
			}
			for i, want := range []string{"miss", "hit", "hit"} {
				if got[i].xcache != want {
					t.Errorf("post %d: X-Cache = %q, want %q", i+1, got[i].xcache, want)
				}
				if g := got[i]; g.status != got[0].status || g.body != got[0].body || g.contentType != got[0].contentType {
					t.Errorf("post %d differs from post 1:\n%+v\n%+v", i+1, g, got[0])
				}
			}
			if n := s.cache.RawLen(); n != 1 {
				t.Errorf("raw bodies = %d after the key hit, want 1", n)
			}
		})
	}
}

// TestRespelledBodyHitsStoredBytes: once an entry holds its encoded
// response, a differently spelled body that keys to it gets exactly
// those bytes.
func TestRespelledBodyHitsStoredBytes(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	first := respond(t, h, "/v1/analyze", rawAnalyzeBody)
	respond(t, h, "/v1/analyze", rawAnalyzeBody)
	respelled := `{ "r": 0.75, "model": {"kind": "hier"}, "network": {"b": 4, "m": 8, "n": 8, "scheme": "full"} }`
	got := respond(t, h, "/v1/analyze", respelled)
	if got.xcache != "hit" || got.body != first.body || got.contentType != first.contentType {
		t.Errorf("respelled body = %+v, want a hit with %q", got, first.body)
	}
	if n := s.cache.RawLen(); n != 1 {
		t.Errorf("raw bodies = %d, want 1: an entry has one raw form", n)
	}
}

// TestIndexedBodyVariantsKeepTheirErrors: a byte-different body is never
// answered from the index, so an indexed body with an unknown field or
// trailing data appended still gets the 400 a fresh server gives it,
// and an over-limit body its 413.
func TestIndexedBodyVariantsKeepTheirErrors(t *testing.T) {
	unknown := strings.TrimSuffix(rawAnalyzeBody, "}") + `,"zz":1}`
	for _, tc := range []struct {
		name, body string
		max        int64
		want       int
	}{
		{"unknown field", unknown, 0, http.StatusBadRequest},
		{"trailing value", rawAnalyzeBody + ` {}`, 0, http.StatusBadRequest},
		{"trailing brace", rawAnalyzeBody + `}`, 0, http.StatusBadRequest},
		{"over the limit", rawAnalyzeBody + strings.Repeat(" ", 64), int64(len(rawAnalyzeBody) + 16), http.StatusRequestEntityTooLarge},
		{"long trailing data", rawAnalyzeBody + strings.Repeat(" ", 600) + "x", 0, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Options{MaxBodyBytes: tc.max})
			h := s.Handler()
			for i := 0; i < 2; i++ {
				if r := respond(t, h, "/v1/analyze", rawAnalyzeBody); r.status != http.StatusOK {
					t.Fatalf("analyze = %d: %s", r.status, r.body)
				}
			}
			fresh := respond(t, newTestServer(t, Options{MaxBodyBytes: tc.max}).Handler(), "/v1/analyze", tc.body)
			for i := 0; i < 2; i++ {
				got := respond(t, h, "/v1/analyze", tc.body)
				if got.status != tc.want || got != fresh {
					t.Fatalf("post %d = %+v, want %d as on a fresh server: %+v", i+1, got, tc.want, fresh)
				}
			}
		})
	}
}

// TestRoutesNeverShareIndexedAnswers: the same bytes on /v1/analyze and
// /v1/simulate are two questions; neither route answers from the
// other's entry.
func TestRoutesNeverShareIndexedAnswers(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	analyze := respond(t, h, "/v1/analyze", rawAnalyzeBody)
	respond(t, h, "/v1/analyze", rawAnalyzeBody)
	simulate := respond(t, h, "/v1/simulate", rawAnalyzeBody)
	if simulate.status != http.StatusOK || simulate.xcache != "miss" || simulate.body == analyze.body {
		t.Fatalf("simulate after an indexed analyze = %+v", simulate)
	}
	respond(t, h, "/v1/simulate", rawAnalyzeBody)
	for i := 0; i < 2; i++ {
		if got := respond(t, h, "/v1/analyze", rawAnalyzeBody); got != (response{analyze.status, analyze.body, analyze.contentType, "hit"}) {
			t.Errorf("analyze = %+v, want its own answer", got)
		}
		if got := respond(t, h, "/v1/simulate", rawAnalyzeBody); got != (response{simulate.status, simulate.body, simulate.contentType, "hit"}) {
			t.Errorf("simulate = %+v, want its own answer", got)
		}
	}
}

// TestEvictedEntryLeavesTheIndex: with one cache entry, a body whose
// entry was evicted is recomputed, and the index never holds more
// bodies than the cache holds entries.
func TestEvictedEntryLeavesTheIndex(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: 1})
	h := s.Handler()
	other := strings.Replace(rawAnalyzeBody, `"r":0.75`, `"r":0.5`, 1)
	check := func(body, want string) {
		t.Helper()
		if got := respond(t, h, "/v1/analyze", body); got.status != http.StatusOK || got.xcache != want {
			t.Fatalf("analyze = %+v, want 200 %s", got, want)
		}
		if n, l := s.cache.RawLen(), s.cache.Len(); n > l {
			t.Fatalf("index holds %d bodies, cache %d entries", n, l)
		}
	}
	check(rawAnalyzeBody, "miss")
	check(rawAnalyzeBody, "hit")
	check(rawAnalyzeBody, "hit")
	check(other, "miss") // evicts the indexed entry
	check(rawAnalyzeBody, "miss")
	check(rawAnalyzeBody, "hit")
	check(rawAnalyzeBody, "hit")
	if ev := s.cache.Stats().Evictions; ev != 2 {
		t.Errorf("evictions = %d, want 2", ev)
	}
}

// TestIndexCollisionComparesBytes forces two bodies into one index slot
// through the cache directly: each body gets only its own entry's bytes.
func TestIndexCollisionComparesBytes(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	other := strings.Replace(rawAnalyzeBody, `"r":0.75`, `"r":0.5`, 1)
	a := respond(t, h, "/v1/analyze", rawAnalyzeBody)
	b := respond(t, h, "/v1/analyze", other)
	keyOf := func(body string) string {
		t.Helper()
		built, err := mustDecodeAnalyze(t, body).scenario().Build()
		if err != nil {
			t.Fatal(err)
		}
		return built.AnalyzeKey()
	}
	slot := cache.RawKey{Route: "analyze", Hash: 42}
	s.cache.Attach(keyOf(rawAnalyzeBody), []byte(a.body), slot, []byte(rawAnalyzeBody))
	s.cache.Attach(keyOf(other), []byte(b.body), slot, []byte(other))
	if enc, ok := s.cache.Raw(slot, []byte(other)); ok {
		t.Errorf("colliding body answered with %q", enc)
	}
	if enc, ok := s.cache.Raw(slot, []byte(rawAnalyzeBody)); !ok || string(enc) != a.body {
		t.Errorf("indexed body = %q, %v; want %q", enc, ok, a.body)
	}
	// The entry that lost the slot still answers its key hits with its
	// own stored bytes.
	if got := respond(t, h, "/v1/analyze", other); got.xcache != "hit" || got.body != b.body {
		t.Errorf("key hit on the other entry = %+v, want %q", got, b.body)
	}
}

func mustDecodeAnalyze(t *testing.T, body string) AnalyzeRequest {
	t.Helper()
	var req AnalyzeRequest
	rec := httptest.NewRecorder()
	if !decodeJSON(rec, strings.NewReader(body), &req) {
		t.Fatalf("decode %s: %s", body, rec.Body.String())
	}
	return req
}

// TestRawHitCountsOneHit: an answer from the index counts one LRU hit
// and one route hit, and no miss, so the hit ratio keeps its meaning.
func TestRawHitCountsOneHit(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	respond(t, h, "/v1/analyze", rawAnalyzeBody)
	respond(t, h, "/v1/analyze", rawAnalyzeBody)
	series := func(result string) string {
		return `mbserve_cache_requests_total{result="` + result + `",route="analyze"}`
	}
	before, m0 := s.cache.Stats(), scrapeMetrics(t, h)
	if got := respond(t, h, "/v1/analyze", rawAnalyzeBody); got.xcache != "hit" {
		t.Fatalf("third post X-Cache = %q, want hit", got.xcache)
	}
	after, m1 := s.cache.Stats(), scrapeMetrics(t, h)
	if d := after.Hits - before.Hits; d != 1 {
		t.Errorf("LRU hits +%d, want +1", d)
	}
	if d := after.Misses - before.Misses; d != 0 {
		t.Errorf("LRU misses +%d, want +0", d)
	}
	if d := metricValue(t, m1, series("hit")) - metricValue(t, m0, series("hit")); d != 1 {
		t.Errorf("route hits +%v, want +1", d)
	}
	if d := metricValue(t, m1, series("miss")) - metricValue(t, m0, series("miss")); d != 0 {
		t.Errorf("route misses +%v, want +0", d)
	}
}

// TestConcurrentIdenticalBodies races identical bodies on both routes
// (run it under -race): every answer is the route's one answer.
func TestConcurrentIdenticalBodies(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: 2})
	h := s.Handler()
	other := strings.Replace(rawAnalyzeBody, `"r":0.75`, `"r":0.5`, 1)
	want := map[string]string{}
	for _, path := range []string{"/v1/analyze", "/v1/simulate"} {
		for _, body := range []string{rawAnalyzeBody, other} {
			want[path+body] = respond(t, newTestServer(t, Options{}).Handler(), path, body).body
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				path := []string{"/v1/analyze", "/v1/simulate"}[(g+i)%2]
				body := []string{rawAnalyzeBody, other}[(g/2+i)%2]
				rec := postJSON(t, h, path, body)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), []byte(want[path+body])) {
					t.Errorf("%s %s = %d %s", path, body, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n, l := s.cache.RawLen(), s.cache.Len(); n > l {
		t.Errorf("index holds %d bodies, cache %d entries", n, l)
	}
}
