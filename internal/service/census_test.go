package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"multibus/internal/cluster"
	"multibus/internal/jobs"
)

// documentedFamilies returns the family column of the metric census
// table in DESIGN.md §10.
func documentedFamilies(t *testing.T) []string {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 10.")
	if !ok {
		t.Fatal("DESIGN.md has no §10")
	}
	sec, _, _ = strings.Cut(sec, "\n## 11.")
	var families []string
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(line, "|") {
			continue
		}
		if name := strings.Trim(strings.TrimSpace(cells[2]), "`"); strings.HasPrefix(name, "mbserve_") {
			families = append(families, name)
		}
	}
	slices.Sort(families)
	return families
}

// TestMetricFamiliesDocumented is the census guard: a cluster-mode
// server that has answered one request on every route, shed one, run a
// job and failed a peer probe exports exactly the families DESIGN.md
// §10 tabulates, each with the question it answers and its reader.
func TestMetricFamiliesDocumented(t *testing.T) {
	self, peer := "http://127.0.0.1:1", "http://127.0.0.1:2" // closed ports
	mgr, err := cluster.NewManager(cluster.ManagerOptions{Self: self, Peers: []string{self, peer}})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := cluster.New(cluster.Options{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Backend: backend, Cluster: mgr, AdmissionLimit: 1, QueueDepth: -1})
	backend.Register(s.Metrics())
	h := s.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// One shed: the only admission unit is held, and there is no queue.
	release, _, err := s.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do("POST", "/v1/analyze", analyzeBody); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("analyze against a full semaphore = %d, want 429", rec.Code)
	}
	release()
	mgr.ProbeOnce(context.Background())

	const analyzeTemplate = `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":0.%d}`
	var jobID string
	for _, rt := range Routes() {
		var rec *httptest.ResponseRecorder
		path := strings.ReplaceAll(rt.Pattern, "{id}", jobID)
		switch rt.Pattern {
		case "/v1/analyze":
			// Several keys, so some are owned by the peer and forwarded.
			for i := 1; i <= 8; i++ {
				rec = do(rt.Method, path, fmt.Sprintf(analyzeTemplate, i))
			}
		case "/v1/simulate":
			rec = do(rt.Method, path, `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.5,"sim":{"cycles":200}}`)
		case "/v1/sweep":
			rec = do(rt.Method, path, `{"ns":[8],"bs":[2,4],"rs":[0.5],"schemes":["full"]}`)
		case "/v1/batch":
			rec = do(rt.Method, path, `{"scenarios":[`+analyzeBody+`]}`)
		case "/v1/cluster/sweep":
			rec = do(rt.Method, path, `{"points":[{"scenario":`+analyzeBody+`,"axis":"full","model":"hier"}]}`)
		case "/v1/cluster/membership":
			rec = do(rt.Method, path, `{"op":"join","peer":"http://127.0.0.1:3"}`)
		case "/v1/jobs":
			if rt.Method == "GET" {
				rec = do(rt.Method, path, "")
				break
			}
			rec = do(rt.Method, path, `{"sweep":{"ns":[8],"bs":[2],"rs":[0.5],"schemes":["full"]}}`)
			var st jobStatusBody
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("job submit = %d %s", rec.Code, rec.Body)
			}
			jobID = st.ID
			deadline := time.Now().Add(10 * time.Second)
			for j, _ := s.Jobs().Get(jobID); !j.Status().State.Terminal(); {
				if time.Now().After(deadline) {
					t.Fatal("census job never finished")
				}
				time.Sleep(time.Millisecond)
			}
		case "/v1/jobs/{id}", "/v1/jobs/{id}/results", "/v1/jobs/{id}/stream", "/healthz", "/readyz", "/metrics":
			rec = do(rt.Method, path, "")
		default:
			t.Fatalf("no census request for route %s %s", rt.Method, rt.Pattern)
		}
		if rec.Code == http.StatusInternalServerError {
			t.Errorf("%s %s = %d %s", rt.Method, path, rec.Code, rec.Body)
		}
	}
	if j, _ := s.Jobs().Get(jobID); j.Status().State != jobs.StateDone {
		t.Errorf("census job ended %s, want done", j.Status().State)
	}

	var exported []string
	typeLine := regexp.MustCompile(`(?m)^# TYPE (\S+) `)
	for _, m := range typeLine.FindAllStringSubmatch(scrapeMetrics(t, h), -1) {
		exported = append(exported, m[1])
	}
	documented := documentedFamilies(t)
	for _, f := range exported {
		if !slices.Contains(documented, f) {
			t.Errorf("family %s is exported but has no row in DESIGN.md §10's census table", f)
		}
	}
	for _, f := range documented {
		if !slices.Contains(exported, f) {
			t.Errorf("DESIGN.md §10 documents %s, but a cluster-mode server never exported it", f)
		}
	}
	if len(documented) != 19 {
		t.Errorf("census table has %d families, want the 19 this test was written for", len(documented))
	}
}
