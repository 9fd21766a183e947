package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"multibus/internal/compute"
	"multibus/internal/jobs"
	"multibus/internal/scenario"
)

// slowSweepBackend is a compute backend whose sweep points and
// simulations each take pointTime (or until their context ends) before
// evaluating; a sweep point then evaluates only the closed form.
// started closes when the first evaluation begins.
type slowSweepBackend struct {
	compute.Backend
	pointTime time.Duration
	started   chan struct{}
	once      sync.Once
}

func (b *slowSweepBackend) wait(ctx context.Context) error {
	b.once.Do(func() { close(b.started) })
	select {
	case <-time.After(b.pointTime):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *slowSweepBackend) SweepPoint(ctx context.Context, jb compute.PointJob) (compute.Point, error) {
	if err := b.wait(ctx); err != nil {
		return compute.Point{}, err
	}
	jb.WithSim = false
	return b.Backend.SweepPoint(ctx, jb)
}

func (b *slowSweepBackend) Simulate(ctx context.Context, built *scenario.Built) (*compute.SimResult, error) {
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return b.Backend.Simulate(ctx, built)
}

// sweepRouteBodies renders one grid of n points at N=16, B=8, each
// simulated for cycles cycles, as the request body of each sweep route,
// keyed by route path.
func sweepRouteBodies(n, cycles int) map[string]string {
	rs := make([]string, n)
	specs := make([]string, n)
	for i := range rs {
		rs[i] = strconv.FormatFloat(float64(i+1)/float64(n), 'g', -1, 64)
		specs[i] = fmt.Sprintf(`{"scenario":{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"uniform"},"r":%s,"sim":{"cycles":%d}},"axis":"full","model":"uniform","withSim":true}`,
			rs[i], cycles)
	}
	sweep := fmt.Sprintf(`{"ns":[16],"bs":[8],"rs":[%s],"schemes":["full"],"withSim":true,"simCycles":%d}`,
		strings.Join(rs, ","), cycles)
	return map[string]string{
		"/v1/sweep":         sweep,
		"/v1/jobs":          `{"sweep":` + sweep + `}`,
		"/v1/cluster/sweep": `{"points":[` + strings.Join(specs, ",") + `]}`,
	}
}

// TestSweepDoesNotLockOutAnalyze: with default Options, a running sweep
// of slow points on any sweep route holds at most its pool's worth of
// admission, so an analyze sent after the first point starts answers
// within two point-times instead of queuing behind the whole grid.
func TestSweepDoesNotLockOutAnalyze(t *testing.T) {
	const pointTime = 100 * time.Millisecond
	bodies := sweepRouteBodies(8*runtime.GOMAXPROCS(0), 20000)
	for _, path := range []string{"/v1/sweep", "/v1/jobs", "/v1/cluster/sweep"} {
		t.Run(strings.ReplaceAll(strings.TrimPrefix(path, "/v1/"), "/", "_"), func(t *testing.T) {
			backend := &slowSweepBackend{Backend: compute.Local(), pointTime: pointTime, started: make(chan struct{})}
			s := newTestServer(t, Options{Backend: backend})
			h := s.Handler()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan int, 1)
			go func() {
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(bodies[path])).WithContext(ctx)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				done <- rec.Code
			}()
			defer func() {
				cancel()
				<-done
				drained, stop := context.WithCancel(context.Background())
				stop()
				s.DrainJobs(drained)
			}()
			<-backend.started

			start := time.Now()
			rec := postJSON(t, h, "/v1/analyze", analyzeBody)
			took := time.Since(start)
			if rec.Code != http.StatusOK {
				t.Fatalf("analyze during sweep = %d: %s", rec.Code, rec.Body)
			}
			if took > 2*pointTime {
				t.Errorf("analyze during a %s sweep answered after %v, want within two point-times (%v)",
					path, took, 2*pointTime)
			}
		})
	}
}

// newOneSlotServer builds a server with one admission unit and no queue
// whose analyze seam parks scenarios at r=heldRate. hold parks one such
// analyze in compute, holding the only slot until the test ends.
func newOneSlotServer(t *testing.T) (s *Server, hold func()) {
	t.Helper()
	const heldRate = 0.125
	entered := make(chan struct{})
	release := make(chan struct{})
	s = newTestServer(t, Options{
		AdmissionLimit: 1,
		QueueDepth:     -1,
		Backend: compute.NewLocal(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			if b.Scenario.R == heldRate {
				close(entered)
				<-release
			}
			return compute.Local().Analyze(ctx, b)
		}, nil),
	})
	hold = func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			postJSON(t, s.Handler(), "/v1/analyze",
				fmt.Sprintf(`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"uniform"},"r":%g}`, heldRate))
		}()
		<-entered
		t.Cleanup(func() {
			close(release)
			<-done
		})
	}
	return s, hold
}

// TestBusySweepAnswersWithoutAdmission: with the only slot held, a
// sweep or simulation that needs no compute is still answered on its
// merits — an invalid grid or an unsimulatable scenario (a hier
// workload with N ≠ M, a hotspot with one module) is the client's 400,
// never a retryable 429, and a grid whose points are all resident is a
// 200 served from the cache.
func TestBusySweepAnswersWithoutAdmission(t *testing.T) {
	const resident = `{"ns":[8,16],"bs":[2,4],"rs":[0.5,1.0],"schemes":["full"]}`
	want := postJSON(t, newTestServer(t, Options{}).Handler(), "/v1/sweep", resident)
	s, hold := newOneSlotServer(t)
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/sweep", resident); rec.Code != http.StatusOK {
		t.Fatalf("warming sweep = %d: %s", rec.Code, rec.Body)
	}
	hold()
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"negative simCycles", "/v1/sweep", `{"ns":[16],"bs":[8],"rs":[0.5],"schemes":["full"],"withSim":true,"simCycles":-5}`, http.StatusBadRequest},
		{"hotspot model", "/v1/sweep", `{"ns":[16],"bs":[8],"rs":[0.5],"schemes":["full"],"models":[{"kind":"hotspot"}]}`, http.StatusBadRequest},
		{"every combination skipped", "/v1/sweep", `{"ns":[4],"bs":[8],"rs":[0.5],"schemes":["full"]}`, http.StatusBadRequest},
		{"all points resident", "/v1/sweep", resident, http.StatusOK},
		{"hier simulate with N≠M", "/v1/simulate", `{"network":{"scheme":"full","n":8,"m":16,"b":4},"model":{"kind":"hier"},"r":0.5}`, http.StatusBadRequest},
		{"hotspot simulate with M=1", "/v1/simulate", `{"network":{"scheme":"full","n":4,"m":1,"b":1},"model":{"kind":"hotspot"},"r":0.5}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, h, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("%s with the slot held = %d, want %d: %s", tc.path, rec.Code, tc.want, rec.Body)
			}
			if tc.want == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("resident sweep body differs from a cold server's:\n%s\n%s", rec.Body, want.Body)
			}
		})
	}
}

// TestSweepShedOnEveryRoute: with the only slot held and no queue, a
// point that misses the cache is shed on every sweep route, each in its
// route's own shape — a 429 with an integer Retry-After for the sync
// sweep, a failed job with code overloaded, and a 200 shard stream whose
// every record is an overloaded error (the coordinator retries those
// locally).
func TestSweepShedOnEveryRoute(t *testing.T) {
	s, hold := newOneSlotServer(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		s.DrainJobs(ctx)
	})
	hold()
	const points = 4
	bodies := sweepRouteBodies(points, 20000)

	t.Run("sweep", func(t *testing.T) {
		rec := postJSON(t, s.Handler(), "/v1/sweep", bodies["/v1/sweep"])
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("sweep = %d, want 429: %s", rec.Code, rec.Body)
		}
		if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
			t.Errorf("Retry-After = %q, want integer seconds ≥ 1", rec.Header().Get("Retry-After"))
		}
		if code := errCode(t, rec); code != "overloaded" {
			t.Errorf("error code = %q, want overloaded", code)
		}
	})
	t.Run("jobs", func(t *testing.T) {
		id, _ := submitJob(t, ts, bodies["/v1/jobs"])
		st := waitJobState(t, ts, id, jobs.StateFailed)
		if st.Error == nil || st.Error.Code != "overloaded" {
			t.Errorf("failed job error = %+v, want code overloaded", st.Error)
		}
	})
	t.Run("cluster_sweep", func(t *testing.T) {
		rec := postJSON(t, s.Handler(), "/v1/cluster/sweep", bodies["/v1/cluster/sweep"])
		if rec.Code != http.StatusOK {
			t.Fatalf("cluster sweep = %d, want 200: %s", rec.Code, rec.Body)
		}
		seen := 0
		for sc := bufio.NewScanner(rec.Body); sc.Scan(); seen++ {
			var r compute.ShardRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("record %q: %v", sc.Text(), err)
			}
			var ae apiError
			if err := json.Unmarshal(r.Error, &ae); err != nil || ae.Code != "overloaded" || r.Point != nil {
				t.Errorf("record %s, want an overloaded error", sc.Text())
			}
		}
		if seen != points {
			t.Errorf("shard stream carried %d records, want %d", seen, points)
		}
	})
}

// TestIdleSweepNeverShedsItself: with no admission queue, a grid of
// overlapping points on an idle server is answered in full on every
// sweep route, however few units the semaphore has. The pool holds no
// more points than fit in admission at once, so its workers never shed
// one another. GOMAXPROCS is raised so the pool would overlap points on
// any host.
func TestIdleSweepNeverShedsItself(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const points = 8
	for _, tc := range []struct {
		name          string
		limit, cycles int
	}{
		{"one unit", 1, 20000},
		{"points of weight 3 in 4 units", 4, 60000},
	} {
		bodies := sweepRouteBodies(points, tc.cycles)
		for _, path := range []string{"/v1/sweep", "/v1/jobs", "/v1/cluster/sweep"} {
			t.Run(tc.name+"/"+strings.ReplaceAll(strings.TrimPrefix(path, "/v1/"), "/", "_"), func(t *testing.T) {
				backend := &slowSweepBackend{Backend: compute.Local(), pointTime: 10 * time.Millisecond, started: make(chan struct{})}
				s, ts := newJobTestServer(t, Options{AdmissionLimit: tc.limit, QueueDepth: -1, Backend: backend})
				switch path {
				case "/v1/sweep":
					if rec := postJSON(t, s.Handler(), path, bodies[path]); rec.Code != http.StatusOK {
						t.Fatalf("sweep on an idle server = %d, want 200: %s", rec.Code, rec.Body)
					}
				case "/v1/jobs":
					id, _ := submitJob(t, ts, bodies[path])
					if st := waitJobState(t, ts, id, jobs.StateDone); st.Completed != points {
						t.Errorf("job completed %d records, want %d", st.Completed, points)
					}
				case "/v1/cluster/sweep":
					rec := postJSON(t, s.Handler(), path, bodies[path])
					seen := 0
					for sc := bufio.NewScanner(rec.Body); sc.Scan(); seen++ {
						var r compute.ShardRecord
						if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Point == nil {
							t.Errorf("record %s, want a point", sc.Text())
						}
					}
					if seen != points {
						t.Errorf("shard stream carried %d records, want %d", seen, points)
					}
				}
			})
		}
	}
}

// TestIdleBatchNeverShedsItself is TestIdleSweepNeverShedsItself for
// the batch pool, sync and as a job: every simulate item of a batch on
// an idle server with no admission queue is answered, however few units
// the semaphore has.
func TestIdleBatchNeverShedsItself(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const items = 8
	for _, tc := range []struct {
		name          string
		limit, cycles int
	}{
		{"one unit", 1, 20000},
		{"items of weight 3 in 4 units", 4, 60000},
	} {
		scenarios := make([]string, items)
		for i := range scenarios {
			scenarios[i] = fmt.Sprintf(`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"uniform"},"r":%g,"sim":{"cycles":%d}}`,
				float64(i+1)/items, tc.cycles)
		}
		batch := `{"scenarios":[` + strings.Join(scenarios, ",") + `]}`
		for _, route := range []string{"batch", "jobs"} {
			t.Run(tc.name+"/"+route, func(t *testing.T) {
				backend := &slowSweepBackend{Backend: compute.Local(), pointTime: 10 * time.Millisecond, started: make(chan struct{})}
				s, ts := newJobTestServer(t, Options{AdmissionLimit: tc.limit, QueueDepth: -1, Backend: backend})
				var recs [][]byte
				if route == "batch" {
					rec := postJSON(t, s.Handler(), "/v1/batch", batch)
					if rec.Code != http.StatusOK {
						t.Fatalf("batch on an idle server = %d, want 200: %s", rec.Code, rec.Body)
					}
					var body struct {
						Items []json.RawMessage `json:"items"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
						t.Fatal(err)
					}
					for _, it := range body.Items {
						recs = append(recs, it)
					}
				} else {
					id, _ := submitJob(t, ts, `{"batch":`+batch+`}`)
					waitJobState(t, ts, id, jobs.StateDone)
					resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
						recs = append(recs, append([]byte(nil), sc.Bytes()...))
					}
				}
				if len(recs) != items {
					t.Fatalf("got %d item records, want %d", len(recs), items)
				}
				for _, rec := range recs {
					var it batchItemBody
					if err := json.Unmarshal(rec, &it); err != nil || it.Error != nil || it.Simulation == nil {
						t.Errorf("item %s, want a simulation", rec)
					}
				}
			})
		}
	}
}
