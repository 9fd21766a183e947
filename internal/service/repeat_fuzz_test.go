package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Caps on what one fuzz input may ask the server to compute, so each
// exec stays in the milliseconds.
const (
	fuzzMaxDim    = 32
	fuzzMaxCycles = 2000
)

// FuzzServeRepeat posts the raw fuzz bytes three times to /v1/analyze
// and to /v1/simulate on one server. The three answers on a route must
// match in status, body and Content-Type — the first is computed or
// refused, the second answered by key, the third from the raw-body
// index — and none may be a 5xx.
func FuzzServeRepeat(f *testing.F) {
	for _, seed := range repeatSeeds(f) {
		f.Add(seed)
	}
	s, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		analyzeOK, simulateOK := fuzzWithinCaps(body)
		for _, route := range []struct {
			path string
			ok   bool
		}{{"/v1/analyze", analyzeOK}, {"/v1/simulate", simulateOK}} {
			if !route.ok {
				continue
			}
			var first *httptest.ResponseRecorder
			for i := 0; i < 3; i++ {
				req := httptest.NewRequest(http.MethodPost, route.path, bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code >= 500 {
					t.Fatalf("%s %q = %d: %s", route.path, body, rec.Code, rec.Body.String())
				}
				if first == nil {
					first = rec
					continue
				}
				if rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) ||
					rec.Header().Get("Content-Type") != first.Header().Get("Content-Type") {
					t.Fatalf("%s %q post %d differs from post 1:\n%d %s %s\n%d %s %s", route.path, body, i+1,
						rec.Code, rec.Header().Get("Content-Type"), rec.Body,
						first.Code, first.Header().Get("Content-Type"), first.Body)
				}
			}
		}
	})
}

// fuzzWithinCaps reports whether body may be posted to each route under
// the fuzz caps. A body the lenient decoder refuses is refused by the
// strict one too, cheaply, so it goes to both routes.
func fuzzWithinCaps(body []byte) (analyze, simulate bool) {
	var req SimulateRequest
	if json.Unmarshal(body, &req) != nil {
		return true, true
	}
	nw, sim := req.Network, req.Sim
	m := nw.M
	for _, c := range nw.ClassSizes {
		if c < 0 || c > fuzzMaxDim {
			return false, false
		}
		m += c
	}
	if nw.N > fuzzMaxDim || m > fuzzMaxDim || nw.B > fuzzMaxDim || len(nw.ClassSizes) > fuzzMaxDim {
		return false, false
	}
	return true, sim.Cycles > 0 && sim.Cycles <= fuzzMaxCycles &&
		sim.Warmup <= fuzzMaxCycles && sim.ServiceCycles <= 4
}

// repeatSeeds is FuzzScenarioCanonical's seed corpus: the example
// scenario files, the API fixtures' bodies and batch items, and the
// scenario package's committed fuzz inputs.
func repeatSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	read := func(pattern string, each func(path string, data []byte)) {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("seed corpus %s missing: %v", pattern, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			each(path, data)
		}
	}
	read("../../examples/scenarios/*.json", func(_ string, data []byte) { seeds = append(seeds, data) })
	read("../../api/fixtures/*.json", func(path string, data []byte) {
		var fx struct {
			Body json.RawMessage `json:"body"`
		}
		if err := json.Unmarshal(data, &fx); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if len(fx.Body) == 0 {
			return
		}
		seeds = append(seeds, fx.Body)
		var batch struct {
			Scenarios []json.RawMessage `json:"scenarios"`
		}
		if json.Unmarshal(fx.Body, &batch) == nil {
			for _, item := range batch.Scenarios {
				seeds = append(seeds, item)
			}
		}
	})
	read("../scenario/testdata/fuzz/FuzzScenarioCanonical/*", func(path string, data []byte) {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), "[]byte(")
			if !ok {
				continue
			}
			v, err := strconv.Unquote(strings.TrimSuffix(line, ")"))
			if err != nil {
				f.Fatalf("%s: %v", path, err)
			}
			seeds = append(seeds, []byte(v))
		}
	})
	return seeds
}
