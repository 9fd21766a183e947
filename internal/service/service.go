// Package service implements the mbserve HTTP JSON API: a long-running,
// concurrent evaluation service in front of the multibus library.
//
// Endpoints:
//
//	POST /v1/analyze   — closed-form bandwidth analysis (cached)
//	POST /v1/simulate  — Monte-Carlo simulation (cached)
//	POST /v1/sweep     — design-space sweep (per-point cached)
//	POST /v1/batch     — list of scenarios on the sweep worker pool (cached)
//	GET  /healthz      — liveness probe
//	GET  /metrics      — Prometheus text exposition (per-route request
//	                     counters, latency histograms, cache gauges)
//	GET  /debug/vars   — expvar JSON (runtime memstats and cmdline)
//	     /debug/pprof/ — runtime profiling
//
// Observability is per-instance: every Server owns an obs.Registry
// (internal/obs) recording per-route request counts, response statuses,
// latency histograms, and X-Cache outcomes, plus live gauges over its
// own cache's stats. Structured access logs go to Options.Logger (one
// log/slog record per request). See DESIGN.md §10.
//
// Request bodies are canonical scenarios (internal/scenario): the same
// JSON a -scenario file holds and the same canonicalization the CLI and
// sweep layers apply, so one configuration keys identically no matter
// which frontend expressed it. Every evaluation goes through one shared
// singleflight LRU (internal/cache): concurrent identical requests
// compute once, repeat requests are served from memory, and sweep grid
// points share the same key space across requests. Evaluation results
// are deterministic functions of the request, so a cache hit is
// byte-identical to a cold computation; the X-Cache response header
// (hit|miss) is the only difference. For the same reason cached answers
// never age: a resident key is answered from memory until LRU eviction.
//
// Request handling is defensive by construction: bodies are
// size-limited, JSON is decoded with unknown fields rejected, every
// computation runs under a per-request deadline, and validation
// failures map to typed 4xx responses via the domain's sentinel errors
// (see errors.go) — never by matching error strings.
//
// The robustness layer (DESIGN.md §11) guards the compute seam. Every
// flight leader — an analyze, a simulate, or one sweep grid point —
// passes one gate before computing: a weighted admission semaphore with
// a bounded FIFO queue (full queue sheds 429 overloaded + Retry-After;
// weights come from the canonical scenario, see weights.go). Tests
// inject faults (failures, panics, stalls) through Options.Backend, the
// seam every computation already goes through. No failure history is
// kept per route: compute is a pure function of the request, so one
// request's failure says nothing about the next (DESIGN.md §11).
// Cache hits are answered before any gate, so a resident key keeps
// answering 200 while compute fails or sheds. Handler panics are
// recovered by the instrument middleware into 500s and counted.
// GET /healthz flips to 503 draining once shutdown begins, so load
// balancers stop routing into the drain window.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"multibus/internal/cache"
	"multibus/internal/compute"
	"multibus/internal/jobs"
	"multibus/internal/obs"
	"multibus/internal/scenario"
	"multibus/internal/sweep"
	"multibus/internal/textio"
)

// Defaults for Options zero values.
const (
	DefaultCacheSize    = 4096
	DefaultTimeout      = 30 * time.Second
	DefaultMaxBodyBytes = 1 << 20 // 1 MiB
	// DefaultQueueDepth bounds the admission wait queue (acquisitions,
	// not units): deep enough to absorb a burst, shallow enough that
	// queued requests still meet typical deadlines.
	DefaultQueueDepth = 64
)

// DefaultAdmissionLimit is the default compute capacity in admission
// units: twice the scheduler parallelism, floored at 4 so small
// containers still overlap compute with request handling.
func DefaultAdmissionLimit() int {
	limit := 2 * runtime.GOMAXPROCS(0)
	if limit < 4 {
		limit = 4
	}
	return limit
}

// Options configures a Server; zero values take the defaults above.
type Options struct {
	// CacheSize bounds the shared analysis/simulation LRU (entries).
	CacheSize int
	// Timeout is the per-request computation deadline. 0 means
	// DefaultTimeout; negative is rejected by New.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies. 0 means DefaultMaxBodyBytes;
	// negative is rejected by New.
	MaxBodyBytes int64
	// Backend overrides the compute backend every evaluation goes
	// through. Nil means compute.Local(), the single-instance path.
	// cmd/mbserve injects the cluster routing backend here in -peers
	// mode, and tests inject compute.NewLocal with counting seams; the
	// service itself never imports internal/cluster.
	Backend compute.Backend
	// Logger receives one structured access-log record per instrumented
	// request (method, route, status, bytes, duration, cache outcome).
	// Nil disables access logging.
	Logger *slog.Logger

	// AdmissionLimit caps concurrently admitted compute units (see
	// weights.go for the unit calibration). 0 means
	// DefaultAdmissionLimit(); negative is rejected by New.
	AdmissionLimit int
	// QueueDepth bounds the admission FIFO wait queue. 0 means
	// DefaultQueueDepth; negative means no queue (shed immediately
	// when the semaphore is full).
	QueueDepth int

	// Cluster, when non-nil, enables the elastic-membership surface:
	// POST /v1/cluster/membership (join/leave applications) and the
	// cluster-aware GET /readyz. cmd/mbserve injects the cluster
	// membership manager here; the service itself never imports
	// internal/cluster (see ClusterControl).
	Cluster ClusterControl

	// JobsMax bounds resident async jobs (queued + running + terminal
	// kept for pagination). 0 means jobs.DefaultMaxJobs; negative is
	// rejected by New.
	JobsMax int
}

// Server is the mbserve request handler. Build one with New; it is
// safe for concurrent use.
type Server struct {
	opts    Options
	cache   *cache.Cache
	logger  *slog.Logger
	metrics *serverMetrics
	backend compute.Backend

	adm  *admission
	jobs *jobs.Store
	// cluster mirrors Options; clusterReady gates GET /readyz until
	// StartCluster has run.
	cluster      ClusterControl
	clusterReady atomic.Bool
	draining     atomic.Bool
}

// nopLogger drops everything cheaply: the Error+1 level gate rejects
// records before they are formatted.
var nopLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
	Level: slog.LevelError + 1,
}))

// New builds a Server.
func New(opts Options) (*Server, error) {
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.Backend == nil {
		opts.Backend = compute.Local()
	}
	if opts.Timeout < 0 {
		return nil, fmt.Errorf("service: timeout %v must be ≥ 0", opts.Timeout)
	}
	if opts.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("service: body limit %d must be ≥ 0", opts.MaxBodyBytes)
	}
	if opts.AdmissionLimit < 0 {
		return nil, fmt.Errorf("service: admission limit %d must be ≥ 0", opts.AdmissionLimit)
	}
	if opts.JobsMax < 0 {
		return nil, fmt.Errorf("service: jobs bound %d must be ≥ 0", opts.JobsMax)
	}
	if opts.AdmissionLimit == 0 {
		opts.AdmissionLimit = DefaultAdmissionLimit()
	}
	queueDepth := opts.QueueDepth
	switch {
	case queueDepth == 0:
		queueDepth = DefaultQueueDepth
	case queueDepth < 0:
		queueDepth = 0
	}
	logger := opts.Logger
	if logger == nil {
		logger = nopLogger
	}
	c, err := cache.New(opts.CacheSize)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		cache:   c,
		backend: opts.Backend,
		logger:  logger,
		metrics: newServerMetrics(c),
		adm:     newAdmission(int64(opts.AdmissionLimit), queueDepth),
		cluster: opts.Cluster,
	}
	s.metrics.bindAdmission(s.adm)
	s.jobs = jobs.NewStore(jobs.Options{
		MaxJobs: opts.JobsMax,
		Hooks:   s.metrics.jobHooks(),
	})
	return s, nil
}

// Jobs exposes the async job store; tests and the drain path reach it
// directly.
func (s *Server) Jobs() *jobs.Store { return s.jobs }

// DrainJobs drains the job store for graceful shutdown: submissions
// are refused, queued jobs are canceled, and running jobs get until
// ctx's deadline to finish before being canceled. Call it after
// http.Server.Shutdown has stopped request traffic.
func (s *Server) DrainJobs(ctx context.Context) { s.jobs.Drain(ctx) }

// BeginDrain flips the server into draining mode: GET /healthz starts
// answering 503 draining so load balancers stop routing here, while
// in-flight requests keep being served. Call it when graceful shutdown
// starts, before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Cache exposes the server's memoization layer (shared with sweep
// evaluation; tests assert on its stats).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Metrics exposes the server's per-instance registry (tests and
// embedders scrape it directly; HTTP clients use GET /metrics).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Route is one endpoint of the v1 surface. The routes table mounts the
// Handler's mux and is also what Routes lists, so cmd/apicheck — which
// asserts every route is documented in api/openapi.yaml — checks the
// contract against what is actually served: adding an endpoint without
// extending the contract fails `make api-check`.
type Route struct {
	Method  string
	Pattern string

	label        string // route label on metrics and logs; "" serves handle bare
	handle       func(*Server, http.ResponseWriter, *http.Request)
	withDeadline bool // bound the request by Options.Timeout
}

// routes is the v1 surface, jobs included, in a stable order. The
// /debug/* endpoints are mounted outside it: they are not part of the
// contract.
var routes = []Route{
	{"POST", "/v1/analyze", "analyze", (*Server).handleAnalyze, true},
	{"POST", "/v1/simulate", "simulate", (*Server).handleSimulate, true},
	{"POST", "/v1/sweep", "sweep", (*Server).handleSweep, true},
	{"POST", "/v1/batch", "batch", (*Server).handleBatch, true},
	{"POST", "/v1/cluster/sweep", "cluster_sweep", (*Server).handleClusterSweep, true},
	{"POST", "/v1/cluster/membership", "cluster_membership", (*Server).handleClusterMembership, true},
	{"POST", "/v1/jobs", "jobs_submit", (*Server).handleJobSubmit, true},
	{"GET", "/v1/jobs", "jobs_list", (*Server).handleJobList, true},
	{"GET", "/v1/jobs/{id}", "jobs_status", (*Server).handleJobStatus, true},
	{"DELETE", "/v1/jobs/{id}", "jobs_cancel", (*Server).handleJobCancel, true},
	{"GET", "/v1/jobs/{id}/results", "jobs_results", (*Server).handleJobResults, true},
	// The stream outlives the per-request compute deadline by design — a
	// job streams for as long as it runs.
	{"GET", "/v1/jobs/{id}/stream", "jobs_stream", (*Server).handleJobStream, false},
	{"GET", "/healthz", "healthz", (*Server).handleHealthz, true},
	{"GET", "/readyz", "readyz", (*Server).handleReadyz, true},
	// A scrape is not itself a request the metrics count.
	{"GET", "/metrics", "", (*Server).handleMetrics, false},
}

// Routes returns every route the Handler serves, jobs surface
// included, in a stable order.
func Routes() []Route { return slices.Clone(routes) }

// Handler returns the service's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		h := func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) }
		if rt.label != "" {
			h = s.instrument(rt.label, rt.withDeadline, h)
		}
		mux.HandleFunc(rt.Method+" "+rt.Pattern, h)
	}
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleHealthz is the liveness probe: 200 until BeginDrain, then 503
// draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; stop routing new requests here")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the registry's Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	// A failed write means the scraper hung up; nothing to report to.
	_ = s.metrics.reg.WritePrometheus(w)
}

// instrument wraps a handler with the per-route observability layer —
// request counter, latency histogram, response-status counter, X-Cache
// outcome counters, access log — plus the body size limit, panic
// recovery (a panicking handler becomes a logged 500 and a
// mbserve_panics_total tick instead of a connection reset) and, when
// withTimeout is set, the per-request deadline. The per-route
// instruments are resolved once, at route registration, not per
// request.
func (s *Server) instrument(route string, withTimeout bool, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	m := s.metrics.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Inc()
		if withTimeout {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		// The hop guard: a request a peer forwarded here is marked in its
		// context so a routing backend computes it locally instead of
		// forwarding again — one hop, never a loop.
		if r.Header.Get(compute.ForwardedHeader) != "" {
			r = r.WithContext(compute.WithForwarded(r.Context()))
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// net/http's own deliberate-abort protocol; not ours to
					// swallow.
					panic(p)
				}
				s.metrics.panics.Inc()
				s.logger.LogAttrs(r.Context(), slog.LevelError, "panic",
					slog.String("route", route),
					slog.Any("value", p),
					slog.String("stack", string(debug.Stack())))
				if !rec.wroteHeader {
					writeError(rec, http.StatusInternalServerError, "internal_error",
						"internal server error")
				}
			} else if !rec.wroteHeader && rec.bytes == 0 {
				// A handler that returned without producing any response —
				// an error path that forgot to write its envelope — must
				// not ship as an implicit empty 200.
				writeError(rec, http.StatusInternalServerError, "internal_error",
					"handler produced no response")
			}
			s.observe(m, r, rec, time.Since(start))
		}()
		h(rec, r)
	}
}

// decodeJSON parses a request body strictly: unknown fields and
// trailing garbage are 400s, an oversized body is a 413. It writes the
// error response itself and reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, body io.Reader, dst any) bool {
	if err := textio.DecodeJSON(body, dst); err != nil {
		// Body-shape failures classify as invalid_request like every
		// other client fault.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeEnvelope(w, http.StatusRequestEntityTooLarge, apiError{
				Code:    "invalid_request",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			})
			return false
		}
		writeEnvelope(w, http.StatusBadRequest, apiError{
			Code:    "invalid_request",
			Message: err.Error(),
		})
		return false
	}
	return true
}

// rawSeed keys the hash of raw request bodies (cache.RawKey); it is
// per process, like the index it keys.
var rawSeed = maphash.MakeSeed()

// bodyHead holds the first bytes of one request body, up to one byte
// past cache.MaxRawBody, so a body the raw-body index may hold is read
// whole, hashed and decoded from the same bytes without a fresh
// allocation. It is pooled: read it, use it, release it.
type bodyHead struct {
	buf    [cache.MaxRawBody + 1]byte
	n, off int       // bytes read into buf; bytes Read has replayed
	rest   io.Reader // the unread tail of a longer body
	err    error     // what ended the body: io.EOF, or the read error
}

var bodyHeads = sync.Pool{New: func() any { return new(bodyHead) }}

// readBodyHead reads the head of body into a pooled bodyHead. whole
// reports that the body ended within cache.MaxRawBody bytes, so Bytes
// holds all of it.
func readBodyHead(body io.Reader) (h *bodyHead, whole bool) {
	h = bodyHeads.Get().(*bodyHead)
	h.n, h.off, h.rest, h.err = 0, 0, nil, nil
	for h.n < len(h.buf) && h.err == nil {
		var k int
		k, h.err = body.Read(h.buf[h.n:])
		h.n += k
	}
	if h.err == nil {
		h.rest = body
	}
	return h, h.err == io.EOF && h.n <= cache.MaxRawBody
}

// Bytes returns the head of the body.
func (h *bodyHead) Bytes() []byte { return h.buf[:h.n] }

// Read replays the body as it arrived: the head, then the rest of the
// body or the error that ended it. A decoder reading h sees exactly the
// stream it would have read from the request, so every decode error,
// 413 included, is the one the request itself would give.
func (h *bodyHead) Read(p []byte) (int, error) {
	if h.off < h.n {
		k := copy(p, h.buf[h.off:h.n])
		h.off += k
		return k, nil
	}
	if h.rest != nil {
		return h.rest.Read(p)
	}
	return 0, h.err
}

func (h *bodyHead) release() {
	h.rest, h.err = nil, nil
	bodyHeads.Put(h)
}

// Cache outcome states, as sent in the X-Cache response header.
const (
	cacheHitState  = "hit"
	cacheMissState = "miss"
)

// gate runs one computation behind the admission semaphore (bounded
// queue, shed when full). route labels the shed counter. gate is only
// ever called as (or from) a singleflight leader, so admission units
// bound actual compute, not waiter count.
func (s *Server) gate(ctx context.Context, route string, weight int64, compute func(context.Context) (any, error)) (any, error) {
	release, wait, err := s.adm.Acquire(ctx, weight)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.shed(route).Inc()
		}
		return nil, err
	}
	s.metrics.queueWait.Observe(wait.Seconds())
	defer release()
	return compute(ctx)
}

// evalScenario evaluates one scenario through the cache, running the
// gated compute on a miss. out reports how the cache answered.
func (s *Server) evalScenario(ctx context.Context, route, key string, weight int64, fn func(context.Context) (any, error)) (any, cache.Outcome, error) {
	v, out, err := s.cache.Do(ctx, key, func() (any, error) {
		return s.gate(ctx, route, weight, fn)
	})
	// A forwarded request that joined an in-flight computation is the
	// cross-instance deduplication sharding exists for: two peers routed
	// the same key here and the owner computed it once.
	if out.Joined && compute.Forwarded(ctx) {
		s.metrics.peerDedup.Inc()
	}
	return v, out, err
}

// pointBackend evaluates sweep grid points on the miss path analyze and
// simulate take: evalScenario keys each point by its sweep-point key and
// admits it at pointWeight on a miss, so a cache hit takes no slot and a
// sweep holds at most one point's weight per worker. Analyze and
// Simulate pass straight through to the embedded backend.
type pointBackend struct {
	compute.Backend
	s     *Server
	route string
}

// SweepPoint implements compute.Backend.
func (p pointBackend) SweepPoint(ctx context.Context, jb compute.PointJob) (compute.Point, error) {
	v, _, err := p.s.evalScenario(ctx, p.route, jb.Key(), pointWeight(jb),
		func(ctx context.Context) (any, error) {
			return p.Backend.SweepPoint(ctx, jb)
		})
	if err != nil {
		return compute.Point{}, err
	}
	return v.(compute.Point), nil
}

// points returns the server's backend with sweep points admitted per
// point under route. A backend that partitions whole grids (the cluster
// coordinator) stays a compute.BatchSweeper, so sweep.Run still hands
// it the grid; its local share comes back through SweepPoint.
func (s *Server) points(route string) compute.Backend {
	p := pointBackend{Backend: s.backend, s: s, route: route}
	if bs, ok := s.backend.(compute.BatchSweeper); ok {
		return struct {
			pointBackend
			compute.BatchSweeper
		}{p, bs}
	}
	return p
}

// scenarioJob is one single-scenario evaluation ready for the cache:
// its canonical key, its admission weight and its compute.
type scenarioJob struct {
	key    string
	weight int64
	run    func(context.Context) (any, error)
}

// analyzeJob checks that built has a closed form and returns its
// analyze evaluation, which weighs one unit (weights.go).
func (s *Server) analyzeJob(built *scenario.Built) (scenarioJob, error) {
	if err := built.CanAnalyze(); err != nil {
		return scenarioJob{}, err
	}
	return scenarioJob{built.AnalyzeKey(), 1, func(ctx context.Context) (any, error) {
		return s.backend.Analyze(ctx, built)
	}}, nil
}

// simulateJob checks that built can be simulated within the work limit
// and returns its simulate evaluation. The cache key — the canonical
// scenario's fingerprints, rate, and normalized simulator parameters —
// fully determines the run; the admission weight comes from the same
// canonical form (weights.go).
func (s *Server) simulateJob(built *scenario.Built) (scenarioJob, error) {
	if err := built.CanSimulate(); err != nil {
		return scenarioJob{}, err
	}
	if err := checkBuiltSimWork(built); err != nil {
		return scenarioJob{}, err
	}
	return scenarioJob{built.SimulateKey(), simulateWeight(built), func(ctx context.Context) (any, error) {
		return s.backend.Simulate(ctx, built)
	}}, nil
}

// scenarioRequest is the body of a single-scenario route.
type scenarioRequest interface {
	scenario() scenario.Scenario
}

// serveScenario serves a single-scenario route, /v1/analyze or
// /v1/simulate; sharing it keeps the two from drifting apart. A body
// this route has already answered from the cache by its canonical key
// is answered again from the raw-body index with one Write: no decode,
// Build, key or encode (DESIGN.md §8). Any other body is decoded
// strictly, built and evaluated through the cache. A miss encodes the
// value and writes nothing to the index. A hit writes the entry's
// encoded response, and the entry's first hit attaches that response
// and this body, so only a body seen twice is ever indexed.
func serveScenario[R scenarioRequest](s *Server, w http.ResponseWriter, r *http.Request, route string, job func(*scenario.Built) (scenarioJob, error)) {
	h, whole := readBodyHead(r.Body)
	defer h.release()
	var rk cache.RawKey
	var raw []byte
	if whole {
		raw = h.Bytes()
		rk = cache.RawKey{Route: route, Hash: maphash.Bytes(rawSeed, raw)}
		if enc, ok := s.cache.Raw(rk, raw); ok {
			writeOutcome(w, true)
			writeBody(w, http.StatusOK, enc)
			return
		}
	}
	var req R
	if !decodeJSON(w, h, &req) {
		return
	}
	built, err := req.scenario().Build()
	if err != nil {
		writeClassified(w, err)
		return
	}
	jb, err := job(built)
	if err != nil {
		writeClassified(w, err)
		return
	}
	v, out, err := s.evalScenario(r.Context(), route, jb.key, jb.weight, jb.run)
	if err != nil {
		writeClassified(w, err)
		return
	}
	writeOutcome(w, out.Hit)
	enc := out.Encoded
	if enc == nil {
		if enc, err = encodeJSON(v); err != nil {
			writeJSON(w, http.StatusOK, v) // reports the failure
			return
		}
		if out.Hit {
			s.cache.Attach(jb.key, enc, rk, raw)
		}
	}
	writeBody(w, http.StatusOK, enc)
}

// handleAnalyze serves POST /v1/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	serveScenario[AnalyzeRequest](s, w, r, "analyze", s.analyzeJob)
}

// handleSimulate serves POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	serveScenario[SimulateRequest](s, w, r, "simulate", s.simulateJob)
}

// sweepSpec renders a sweep request as the grid the sync handler and
// sweep jobs run, its points admitted per point under route (see
// points). Grids estimated over maxSweepPoints, and simulated grids
// whose largest point exceeds maxSimWork, are refused here, before
// enumeration.
func (s *Server) sweepSpec(req SweepRequest, route string) (sweep.Spec, error) {
	templates := make([]scenario.Network, 0, len(req.Schemes)+len(req.Networks))
	for _, name := range req.Schemes {
		nw, err := scenario.SweepScheme(name)
		if err != nil {
			return sweep.Spec{}, err
		}
		templates = append(templates, nw)
	}
	templates = append(templates, req.Networks...)
	spec := sweep.Spec{
		Ns:           req.Ns,
		Bs:           req.Bs,
		Rs:           req.Rs,
		Schemes:      templates,
		Models:       req.Models,
		Hierarchical: req.Hierarchical,
		WithSim:      req.WithSim,
		SimCycles:    req.SimCycles,
		Seed:         req.Seed,
		Backend:      s.points(route),
	}
	if n := spec.EstimatePoints(); n > maxSweepPoints {
		return sweep.Spec{}, fmt.Errorf("%w: sweep grid of %d points exceeds the %d-point limit",
			errBadRequest, n, maxSweepPoints)
	}
	weight := int64(1)
	if spec.WithSim {
		// Every grid point runs the grid's canonical sim; the largest N
		// is the costliest point.
		sim, err := scenario.Sim{Cycles: spec.SimCycles, Seed: spec.Seed}.Canonical()
		if err != nil {
			return sweep.Spec{}, err
		}
		maxN := 1
		for _, n := range spec.Ns {
			maxN = max(maxN, n)
		}
		if err := checkSimWork(sim.Warmup, sim.Cycles, maxN); err != nil {
			return sweep.Spec{}, err
		}
		weight = simWeight(sim.Cycles, maxN)
	}
	// As many workers as the costliest point fits in admission, so the
	// grid never queues behind, or sheds, its own points.
	spec.Workers = s.adm.poolSize(weight)
	return spec, nil
}

// checkBatch validates a batch request's size for the sync handler and
// batch jobs alike: an empty list or one over maxBatchItems is a 400.
func checkBatch(req BatchRequest) error {
	if len(req.Scenarios) == 0 {
		return fmt.Errorf("%w: scenarios list is empty", errBadRequest)
	}
	if len(req.Scenarios) > maxBatchItems {
		return fmt.Errorf("%w: %d scenarios exceed the %d-item batch limit",
			errBadRequest, len(req.Scenarios), maxBatchItems)
	}
	return nil
}

// handleSweep serves POST /v1/sweep. Grid points are memoized in the
// shared cache, so overlapping grids across requests — and identical
// points requested concurrently — are computed once; each miss is
// admitted on its own, so a shed point fails the sweep with the same
// 429 as any request. Skipped grid combinations are reported, never
// silently dropped.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	spec, err := s.sweepSpec(req, "sweep")
	if err != nil {
		writeClassified(w, err)
		return
	}
	spec.Context = r.Context()
	res, err := sweep.Run(spec)
	if err != nil {
		writeClassified(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sweepBody{Points: res.Points, Skipped: res.Skipped})
}

// handleBatch serves POST /v1/batch: a list of scenarios evaluated on
// the sweep worker pool through the shared memo cache. Items fail
// independently — a bad scenario yields a per-item error while the rest
// evaluate — and the X-Cache header reads "hit" only when every item
// was served from cache.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	if err := checkBatch(req); err != nil {
		writeClassified(w, err)
		return
	}
	built, workers := s.buildBatch(req.Scenarios)
	items := make([]batchItemBody, len(built))
	// Item evaluation never returns an error to the pool: failures are
	// recorded per item so one bad scenario cannot abort its neighbors.
	err := sweep.ForEachPool(r.Context(), len(built), sweep.PoolOptions{
		Workers: workers,
		Label:   "batch",
	}, func(ctx context.Context, i int) error {
		items[i] = s.evalBatchItem(ctx, i, built[i])
		return nil
	})
	// Items fail independently only while the request itself is alive: a
	// canceled or timed-out request context aborts the pool mid-batch,
	// leaving zero-valued items that must not ship as a 200 — classify
	// and propagate like every other handler.
	if err == nil {
		err = r.Context().Err()
	}
	if err != nil {
		writeClassified(w, err)
		return
	}
	allCached := true
	for i := range items {
		allCached = allCached && items[i].Cached
	}
	writeOutcome(w, allCached)
	writeJSON(w, http.StatusOK, batchBody{Items: items})
}

// builtItem is one batch entry resolved before evaluation: its
// operation and built scenario, or the error that stopped either.
type builtItem struct {
	op    string
	built *scenario.Built
	err   error
}

// buildBatch resolves every batch entry up front, as the shard worker
// does, and returns the pool size that fits its costliest item in
// admission (see sweepSpec): a batch never queues behind, or sheds, its
// own items. A simulation over the work limit fails before admission,
// so it does not count toward the pool's weight.
func (s *Server) buildBatch(scenarios []BatchItem) ([]builtItem, int) {
	items := make([]builtItem, len(scenarios))
	weight := int64(1)
	for i, sc := range scenarios {
		it := &items[i]
		if it.op, it.err = sc.operation(); it.err == nil {
			it.built, it.err = sc.Scenario.Build()
		}
		if it.err == nil && it.op == "simulate" && checkBuiltSimWork(it.built) == nil {
			weight = max(weight, simulateWeight(it.built))
		}
	}
	return items, s.adm.poolSize(weight)
}

// evalBatchItem evaluates one built batch entry, folding any failure
// into the item body as a classified error.
func (s *Server) evalBatchItem(ctx context.Context, index int, item builtItem) batchItemBody {
	body := batchItemBody{Index: index, Op: item.op}
	err := item.err
	if err == nil {
		job := s.analyzeJob
		if item.op == "simulate" {
			job = s.simulateJob
		}
		var jb scenarioJob
		if jb, err = job(item.built); err == nil {
			var v any
			var out cache.Outcome
			v, out, err = s.evalScenario(ctx, item.op, jb.key, jb.weight, jb.run)
			body.Cached = out.Hit
			switch v := v.(type) {
			case *compute.Analysis:
				body.Analysis = v
			case *compute.SimResult:
				body.Simulation = v
			}
		}
	}
	if err != nil {
		body.Error = newAPIError(err)
	}
	return body
}

// Response bodies. Field order is fixed and encoding/json is
// deterministic for these types, so equal results render to identical
// bytes — the property the cache tests pin down.

// sweepBody is the sync sweep response. The async job's per-record
// stream and the cluster sweep endpoint ship the same compute.Point
// shape, which is what makes a streamed or peer-computed point
// byte-identical to the same point in a sync /v1/sweep body.
type sweepBody struct {
	Points  []compute.Point `json:"points"`
	Skipped []sweep.Skip    `json:"skipped"`
}

type batchItemBody struct {
	Index      int                `json:"index"`
	Op         string             `json:"op,omitempty"`
	Cached     bool               `json:"cached"`
	Error      *apiError          `json:"error,omitempty"`
	Analysis   *compute.Analysis  `json:"analysis,omitempty"`
	Simulation *compute.SimResult `json:"simulation,omitempty"`
}

type batchBody struct {
	Items []batchItemBody `json:"items"`
}

// writeOutcome sets the X-Cache header. It must run before writeJSON
// (headers flush with the status line).
func writeOutcome(w http.ResponseWriter, hit bool) {
	state := cacheMissState
	if hit {
		state = cacheHitState
	}
	w.Header().Set("X-Cache", state)
}

// encodeJSON renders v as a response body: its JSON and a newline.
func encodeJSON(v any) ([]byte, error) {
	buf, err := json.Marshal(v)
	return append(buf, '\n'), err
}

// writeJSON encodes v and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := encodeJSON(v)
	if err != nil {
		// Response bodies are plain data structs; this cannot happen.
		http.Error(w, `{"error":{"code":"internal_error","message":"response encoding failed","retryable":true}}`,
			http.StatusInternalServerError)
		return
	}
	writeBody(w, status, buf)
}

// writeBody writes a body encoded by encodeJSON — a cache entry's
// stored response, say — with the given status, in one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError writes an explicit error response through the unified v1
// envelope (see apiError). Every error carries Cache-Control: no-store
// so intermediaries never cache a 4xx/5xx body (a cached 429 would
// keep shedding a client after the overload ends).
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeEnvelope(w, status, apiError{Code: code, Message: message, Retryable: retryableCode(code)})
}

// writeEnvelope is the single error-writing path every route funnels
// through: the one place the envelope shape, the no-store header, and
// the Retry-After mirror are enforced.
func writeEnvelope(w http.ResponseWriter, status int, ae apiError) {
	w.Header().Set("Cache-Control", "no-store")
	if ae.RetryAfterS > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", ae.RetryAfterS))
	}
	writeJSON(w, status, errorResponse{Error: ae})
}

// writeClassified maps a domain error to its HTTP status via the
// sentinel classification, surfacing the backoff hint every overloaded
// error carries (sheds, full job store) as both the Retry-After header
// and the envelope's retry_after_s (see newAPIError).
func writeClassified(w http.ResponseWriter, err error) {
	status, _ := classify(err)
	writeEnvelope(w, status, *newAPIError(err))
}
