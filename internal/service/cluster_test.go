package service

import (
	"net/http"
	"sort"
	"strings"
	"testing"
)

// TestClusterSweepRecordBytes pins the NDJSON wire bytes of a shard
// response — one compute.ShardRecord per point, a point record and an
// error record — since the coordinator decodes them with the same type.
// Records stream in completion order, so lines compare sorted.
func TestClusterSweepRecordBytes(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	body := `{"points":[` +
		`{"scenario":{"network":{"scheme":"full","n":4,"b":2},"model":{"kind":"uniform"},"r":1},"axis":"full","model":"uniform"},` +
		`{"scenario":{"network":{"scheme":"mesh","n":4,"b":2},"model":{"kind":"uniform"},"r":1},"axis":"mesh","model":"uniform"}]}`
	rec := postJSON(t, h, "/v1/cluster/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := strings.SplitAfter(rec.Body.String(), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	sort.Strings(lines)
	want := []string{
		`{"i":0,"point":{"scheme":"full","model":"uniform","n":4,"b":2,"r":1,"x":0.68359375,"bandwidth":1.8933397834189234}}` + "\n",
		`{"i":1,"error":{"code":"invalid_request","message":"scenario: invalid specification: unknown network.scheme \"mesh\" (want full|single|partial|kclass)","retryable":false}}` + "\n",
	}
	if strings.Join(lines, "") != strings.Join(want, "") {
		t.Errorf("shard records:\n%s\nwant:\n%s", strings.Join(lines, ""), strings.Join(want, ""))
	}
}
