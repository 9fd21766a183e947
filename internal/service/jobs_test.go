package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multibus/internal/compute"
	"multibus/internal/jobs"
	"multibus/internal/scenario"
)

// newJobTestServer builds a Server plus a real HTTP listener (streaming
// and disconnect tests need live connections, not ResponseRecorders)
// and drains the job store on cleanup so blocked compute can't outlive
// the test.
func newJobTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		s.DrainJobs(ctx)
	})
	return s, ts
}

func submitJob(t *testing.T, ts *httptest.Server, body string) (id string, resp jobStatusBody) {
	t.Helper()
	r, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		t.Fatalf("submit = %d, want 202: %s", r.StatusCode, buf.String())
	}
	if loc := r.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q, want /v1/jobs/<id>", loc)
	}
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" {
		t.Fatal("submit response has no job id")
	}
	return resp.ID, resp
}

func getJobStatus(t *testing.T, ts *httptest.Server, id string) jobStatusBody {
	t.Helper()
	r, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st jobStatusBody
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitJobState(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobStatusBody {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getJobStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state = %s (err %+v), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

const sweepJobBody = `{"sweep":{"ns":[8,16],"bs":[2,4],"rs":[0.5,1.0],"schemes":["full","single"]}}`

// TestJobSweepStreamMatchesSyncSweep pins the acceptance criterion: the
// async path delivers, per point, the byte-identical JSON the sync
// endpoint returns for the same grid.
func TestJobSweepStreamMatchesSyncSweep(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})

	sync, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"ns":[8,16],"bs":[2,4],"rs":[0.5,1.0],"schemes":["full","single"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer sync.Body.Close()
	var syncBody struct {
		Points  []json.RawMessage `json:"points"`
		Skipped []json.RawMessage `json:"skipped"`
	}
	if err := json.NewDecoder(sync.Body).Decode(&syncBody); err != nil {
		t.Fatal(err)
	}
	if len(syncBody.Points) == 0 {
		t.Fatal("sync sweep returned no points")
	}

	id, _ := submitJob(t, ts, sweepJobBody)
	stream, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines [][]byte
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(syncBody.Points) {
		t.Fatalf("stream produced %d lines, sync sweep %d points", len(lines), len(syncBody.Points))
	}
	for i := range lines {
		if !bytes.Equal(lines[i], []byte(syncBody.Points[i])) {
			t.Fatalf("point %d differs:\nstream: %s\nsync:   %s", i, lines[i], syncBody.Points[i])
		}
	}

	st := waitJobState(t, ts, id, jobs.StateDone)
	if !st.TotalExact || st.Total != len(syncBody.Points) {
		t.Errorf("terminal total = %d (exact %v), want %d exact", st.Total, st.TotalExact, len(syncBody.Points))
	}
	if st.Completed != st.Total || st.Error != nil {
		t.Errorf("terminal status completed=%d error=%+v", st.Completed, st.Error)
	}
	// The sync response's skipped combinations surface as the job summary.
	var summary jobSweepSummary
	if err := json.Unmarshal(st.Summary, &summary); err != nil {
		t.Fatalf("summary is not a sweep summary: %v (%s)", err, st.Summary)
	}
	if len(summary.Skipped) != len(syncBody.Skipped) {
		t.Errorf("summary skipped = %d, sync skipped = %d", len(summary.Skipped), len(syncBody.Skipped))
	}
}

// TestJobResultsPaginationMatchesSync walks the cursor pages of a
// finished sweep job and checks the concatenation equals the sync point
// list exactly — no duplicates, no gaps.
func TestJobResultsPaginationMatchesSync(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})
	id, _ := submitJob(t, ts, sweepJobBody)
	waitJobState(t, ts, id, jobs.StateDone)

	var paged [][]byte
	cursor := ""
	for {
		url := ts.URL + "/v1/jobs/" + id + "/results?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var page jobResultsBody
		err = json.NewDecoder(r.Body).Decode(&page)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range page.Records {
			paged = append(paged, []byte(rec))
		}
		if !page.More {
			break
		}
		if len(page.Records) == 0 {
			t.Fatalf("page at %q empty but more=true on a terminal job", cursor)
		}
		cursor = page.NextCursor
	}

	sync, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"ns":[8,16],"bs":[2,4],"rs":[0.5,1.0],"schemes":["full","single"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer sync.Body.Close()
	var syncBody struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.NewDecoder(sync.Body).Decode(&syncBody); err != nil {
		t.Fatal(err)
	}
	if len(paged) != len(syncBody.Points) {
		t.Fatalf("pagination yielded %d records, want %d", len(paged), len(syncBody.Points))
	}
	for i := range paged {
		if !bytes.Equal(paged[i], []byte(syncBody.Points[i])) {
			t.Fatalf("paged record %d differs:\npaged: %s\nsync:  %s", i, paged[i], syncBody.Points[i])
		}
	}
}

// TestJobCursorStableUnderConcurrentCompletion re-reads the same cursor
// while a batch job is still completing items and again after it
// finishes: the first read must be a byte-exact prefix of the second
// (retained records are append-only in grid order).
func TestJobCursorStableUnderConcurrentCompletion(t *testing.T) {
	const items = 24
	// Item i runs at r = 0.5 + i/100. The first half computes at once and
	// the second half waits for hold, so the frontier stops at exactly
	// items/2 whatever order the pool's workers run in.
	firstHeld := 0.5 + float64(items/2)/100
	hold := make(chan struct{})
	s, ts := newJobTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			if b.Scenario.R >= firstHeld {
				select {
				case <-hold:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return &compute.Analysis{X: b.Scenario.R}, nil
		}, nil),
	})
	var sb strings.Builder
	sb.WriteString(`{"batch":{"scenarios":[`)
	for i := 0; i < items; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		// Distinct r per item so every item is a distinct cache key.
		fmt.Fprintf(&sb, `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":%g}`,
			0.5+float64(i)/100)
	}
	sb.WriteString(`]}}`)
	id, _ := submitJob(t, ts, sb.String())

	readPage := func(cursor string, limit int) jobResultsBody {
		t.Helper()
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?cursor=%s&limit=%d", ts.URL, id, cursor, limit))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var page jobResultsBody
		if err := json.NewDecoder(r.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	// Wait until the frontier covers the unheld half.
	deadline := time.Now().Add(10 * time.Second)
	for getJobStatus(t, ts, id).Completed < items/2 {
		if time.Now().After(deadline) {
			t.Fatalf("job never completed %d items: %+v", items/2, getJobStatus(t, ts, id))
		}
		time.Sleep(5 * time.Millisecond)
	}
	mid := readPage("v1:0", items)
	if len(mid.Records) < items/2 {
		t.Fatalf("mid-flight page returned %d records, want ≥ %d", len(mid.Records), items/2)
	}
	if !mid.More {
		t.Error("mid-flight page reports more=false on a live job")
	}

	// Release the rest, wait for done, and re-read the same cursor.
	close(hold)
	waitJobState(t, ts, id, jobs.StateDone)
	final := readPage("v1:0", items)
	if len(final.Records) != items {
		t.Fatalf("final page returned %d records, want %d", len(final.Records), items)
	}
	for i, rec := range mid.Records {
		if !bytes.Equal(rec, final.Records[i]) {
			t.Fatalf("record %d changed between reads:\nmid:   %s\nfinal: %s", i, rec, final.Records[i])
		}
	}
	// No duplicates or gaps: batch records carry their index.
	for i, rec := range final.Records {
		var item struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(rec, &item); err != nil {
			t.Fatal(err)
		}
		if item.Index != i {
			t.Fatalf("record %d has index %d (duplicate or gap)", i, item.Index)
		}
	}
	_ = s
}

// TestJobStreamDisconnectCancelsWorkers pins the satellite: a client
// that opened the stream with cancel_on_disconnect=true and hangs up
// mid-stream cancels the underlying job — workers unwind, admission
// units release, and the inflight gauge returns to zero.
func TestJobStreamDisconnectCancelsWorkers(t *testing.T) {
	started := make(chan struct{}, 64)
	var inflight atomic.Int64
	s, ts := newJobTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			inflight.Add(1)
			defer inflight.Add(-1)
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}, nil),
	})
	id, _ := submitJob(t, ts,
		`{"batch":{"scenarios":[`+
			`{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.5},`+
			`{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.6}]}}`)

	// Wait until at least one worker is actually computing.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no batch worker started")
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/jobs/"+id+"/stream?cancel_on_disconnect=true", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// No records will arrive (compute is blocked); hang up mid-stream.
	time.Sleep(20 * time.Millisecond)
	cancel()
	resp.Body.Close()

	waitJobState(t, ts, id, jobs.StateCanceled)
	deadline := time.Now().Add(10 * time.Second)
	running := func() (n int) {
		for _, st := range s.Jobs().Jobs() {
			if st.State == jobs.StateRunning {
				n++
			}
		}
		return n
	}
	for inflight.Load() != 0 || running() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("workers leaked after disconnect: inflight=%d running=%d",
				inflight.Load(), running())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The admission gauge agrees: no compute units held.
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mbserve_inflight_compute 0") {
		t.Errorf("metrics do not report mbserve_inflight_compute 0 after disconnect")
	}
}

// TestJobStreamDefaultOutlivesDisconnect is the inverse: without
// cancel_on_disconnect, a hang-up leaves the job running.
func TestJobStreamDefaultOutlivesDisconnect(t *testing.T) {
	release := make(chan struct{})
	_, ts := newJobTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			select {
			case <-release:
				return &compute.Analysis{X: b.Scenario.R}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, nil),
	})
	id, _ := submitJob(t, ts,
		`{"batch":{"scenarios":[{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.5}]}}`)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	resp.Body.Close()

	close(release)
	if st := waitJobState(t, ts, id, jobs.StateDone); st.Completed != 1 {
		t.Errorf("job completed %d items after disconnect, want 1", st.Completed)
	}
}

// TestJobCancelEndpoint covers DELETE: a running job unwinds to
// canceled, the terminal status carries the envelope-typed error, and a
// repeat DELETE is an idempotent no-op.
func TestJobCancelEndpoint(t *testing.T) {
	started := make(chan struct{}, 8)
	_, ts := newJobTestServer(t, Options{
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}, nil),
	})
	id, _ := submitJob(t, ts,
		`{"batch":{"scenarios":[{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.5}]}}`)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("batch worker never started")
	}
	del := func() (int, jobStatusBody) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var st jobStatusBody
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, st
	}
	if code, _ := del(); code != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", code)
	}
	st := waitJobState(t, ts, id, jobs.StateCanceled)
	if st.Error == nil || st.Error.Code != "canceled" {
		t.Errorf("canceled job error = %+v, want code canceled", st.Error)
	}
	if code, st2 := del(); code != http.StatusOK || st2.State != jobs.StateCanceled {
		t.Errorf("repeat cancel = %d state %s, want 200 canceled", code, st2.State)
	}
}

// TestJobSubmitValidationAndLookup covers the 4xx surface: malformed
// job bodies, unknown ids, malformed cursors — all through the unified
// envelope.
func TestJobSubmitValidationAndLookup(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})
	post := func(body string) (int, errorResponse) {
		r, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var er errorResponse
		if err := json.NewDecoder(r.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, er
	}
	for _, tc := range []struct {
		name, body string
	}{
		{"neither", `{}`},
		{"both", `{"sweep":{"ns":[8],"bs":[4],"rs":[1]},"batch":{"scenarios":[]}}`},
		{"bad sweep scheme", `{"sweep":{"ns":[8],"bs":[4],"rs":[1],"schemes":["hypercube"]}}`},
		{"empty batch", `{"batch":{"scenarios":[]}}`},
	} {
		code, er := post(tc.body)
		if code != http.StatusBadRequest || er.Error.Code != "invalid_request" {
			t.Errorf("%s: = %d %q, want 400 invalid_request", tc.name, code, er.Error.Code)
		}
	}

	r, err := http.Get(ts.URL + "/v1/jobs/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	json.NewDecoder(r.Body).Decode(&er)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound || er.Error.Code != "not_found" {
		t.Errorf("unknown id = %d %q, want 404 not_found", r.StatusCode, er.Error.Code)
	}

	id, _ := submitJob(t, ts, sweepJobBody)
	r, err = http.Get(ts.URL + "/v1/jobs/" + id + "/results?cursor=bogus")
	if err != nil {
		t.Fatal(err)
	}
	er = errorResponse{}
	json.NewDecoder(r.Body).Decode(&er)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest || er.Error.Code != "invalid_request" {
		t.Errorf("bad cursor = %d %q, want 400 invalid_request", r.StatusCode, er.Error.Code)
	}
}

// TestJobStoreFullSheds429 pins job admission: a store at MaxJobs with
// no terminal job to evict refuses the next submission with the
// overloaded envelope and a Retry-After hint.
func TestJobStoreFullSheds429(t *testing.T) {
	_, ts := newJobTestServer(t, Options{
		JobsMax: 1,
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}, nil),
	})
	body := `{"batch":{"scenarios":[{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"uniform"},"r":0.5}]}}`
	submitJob(t, ts, body)

	r, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(r.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusTooManyRequests || er.Error.Code != "overloaded" {
		t.Fatalf("full store = %d %q, want 429 overloaded", r.StatusCode, er.Error.Code)
	}
	if !er.Error.Retryable || er.Error.RetryAfterS < 1 {
		t.Errorf("envelope = %+v, want retryable with retry_after_s ≥ 1", er.Error)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
}

// TestNewRejectsNegativeBounds: negative admission and job bounds are
// configuration errors, not modes.
func TestNewRejectsNegativeBounds(t *testing.T) {
	for _, opts := range []Options{{AdmissionLimit: -1}, {JobsMax: -1}} {
		if _, err := New(opts); err == nil {
			t.Errorf("New(%+v) accepted a negative bound", opts)
		}
	}
}

// TestJobSubmitWhileDrainingRefused: once BeginDrain flips, new jobs
// are refused with the draining envelope.
func TestJobSubmitWhileDrainingRefused(t *testing.T) {
	s, ts := newJobTestServer(t, Options{})
	s.BeginDrain()
	r, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepJobBody))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(r.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusServiceUnavailable || er.Error.Code != "draining" {
		t.Fatalf("draining submit = %d %q, want 503 draining", r.StatusCode, er.Error.Code)
	}
	if !er.Error.Retryable {
		t.Error("draining refusal should be retryable")
	}
}

// TestJobListShowsSubmittedJobs sanity-checks GET /v1/jobs.
func TestJobListShowsSubmittedJobs(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})
	id, _ := submitJob(t, ts, sweepJobBody)
	waitJobState(t, ts, id, jobs.StateDone)
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var body struct {
		Jobs []jobStatusBody `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 1 || body.Jobs[0].ID != id {
		t.Fatalf("job list = %+v, want the one submitted job", body.Jobs)
	}
}

// TestJobStreamSSE drives the Accept: text/event-stream variant: data
// events carry the same record bytes and the stream ends with an "end"
// event holding the terminal status.
func TestJobStreamSSE(t *testing.T) {
	_, ts := newJobTestServer(t, Options{})
	id, _ := submitJob(t, ts, sweepJobBody)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	var dataLines, endLines int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: end"):
			endLines++
		case strings.HasPrefix(line, "data: "):
			dataLines++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if endLines != 1 {
		t.Errorf("SSE end events = %d, want 1", endLines)
	}
	if dataLines < 2 {
		t.Errorf("SSE data events = %d, want the points plus the end status", dataLines)
	}
}
