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
// flight leader passes two gates before computing: a weighted admission
// semaphore with a bounded FIFO queue (full queue sheds 429 overloaded
// + Retry-After; weights come from the canonical scenario, see
// weights.go), and the optional chaos injector (internal/chaos — the
// fault harness the robustness tests drive). No failure history is
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
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"multibus/internal/cache"
	"multibus/internal/chaos"
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
	// Timeout is the per-request computation deadline.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies.
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
	// Chaos, when non-nil, injects faults (latency, panics) at
	// the top of every gated computation — the chaos harness the
	// robustness tests and the mbserve -chaos flag wire in. Nil injects
	// nothing.
	Chaos *chaos.Injector

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

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Cache exposes the server's memoization layer (shared with sweep
// evaluation; tests assert on its stats).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Metrics exposes the server's per-instance registry (tests and
// embedders scrape it directly; HTTP clients use GET /metrics).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Route is one registered endpoint of the v1 surface. The listing is
// shared with cmd/apicheck, which asserts every route is documented in
// api/openapi.yaml — adding an endpoint without extending the contract
// fails `make api-check`.
type Route struct {
	Method  string
	Pattern string
}

// Routes returns every route the Handler serves, jobs surface
// included, in a stable order.
func Routes() []Route {
	return []Route{
		{"POST", "/v1/analyze"},
		{"POST", "/v1/simulate"},
		{"POST", "/v1/sweep"},
		{"POST", "/v1/batch"},
		{"POST", "/v1/cluster/sweep"},
		{"POST", "/v1/cluster/membership"},
		{"POST", "/v1/jobs"},
		{"GET", "/v1/jobs"},
		{"GET", "/v1/jobs/{id}"},
		{"DELETE", "/v1/jobs/{id}"},
		{"GET", "/v1/jobs/{id}/results"},
		{"GET", "/v1/jobs/{id}/stream"},
		{"GET", "/healthz"},
		{"GET", "/readyz"},
		{"GET", "/metrics"},
	}
}

// Handler returns the service's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("POST /v1/cluster/sweep", s.instrument("cluster_sweep", s.handleClusterSweep))
	mux.HandleFunc("POST /v1/cluster/membership", s.instrument("cluster_membership", s.handleClusterMembership))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs_submit", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("jobs_list", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs_status", s.handleJobStatus))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs_cancel", s.handleJobCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.instrument("jobs_results", s.handleJobResults))
	// The stream outlives the per-request compute deadline by design — a
	// job streams for as long as it runs — so it takes the no-timeout
	// variant of the middleware.
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.instrumentOpts("jobs_stream", false, s.handleJobStream))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "draining",
				"server is draining; stop routing new requests here")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		// A failed write means the scraper hung up; nothing to report to.
		_ = s.metrics.reg.WritePrometheus(w)
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// instrument wraps a handler with the per-route observability layer —
// request counter, latency histogram, response-status counter, X-Cache
// outcome counters, access log — plus the per-request deadline, the
// body size limit, and panic recovery (a panicking handler becomes a
// logged 500 and a mbserve_panics_total tick instead of a connection
// reset). The per-route instruments are resolved once, at route
// registration, not per request.
func (s *Server) instrument(route string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return s.instrumentOpts(route, true, h)
}

// instrumentOpts is instrument with the per-request deadline optional:
// the jobs stream endpoint serves for as long as its job runs, so it
// opts out of the compute timeout (every other guard still applies).
func (s *Server) instrumentOpts(route string, withTimeout bool, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	var (
		requests = s.metrics.reg.Counter(metricRequestsTotal,
			"HTTP requests by route", obs.L("route", route))
		latency = s.metrics.reg.Histogram(metricDurationSeconds,
			"request latency by route (seconds)", nil, obs.L("route", route))
		cacheHit = s.metrics.reg.Counter(metricCacheRequests,
			"requests by route and X-Cache outcome", obs.L("route", route), obs.L("result", "hit"))
		cacheMiss = s.metrics.reg.Counter(metricCacheRequests,
			"requests by route and X-Cache outcome", obs.L("route", route), obs.L("result", "miss"))
	)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
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
			s.observe(route, r, rec, time.Since(start), latency, cacheHit, cacheMiss)
		}()
		h(rec, r)
	}
}

// decodeJSON parses a request body strictly: unknown fields and
// trailing garbage are 400s, an oversized body is a 413. It writes the
// error response itself and reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := textio.DecodeJSON(r.Body, dst); err != nil {
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

// Cache outcome states, as sent in the X-Cache response header.
const (
	cacheHitState  = "hit"
	cacheMissState = "miss"
)

// gate runs one computation through the robustness gates, in order:
// admission semaphore (bounded queue, shed when full), then the chaos
// injector, then the computation itself. route labels the shed
// counter. gate is only ever called as (or from) a singleflight
// leader, so admission units bound actual compute, not waiter count.
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
	if err := s.opts.Chaos.Inject(ctx); err != nil {
		return nil, err
	}
	return compute(ctx)
}

// evalScenario evaluates one scenario through the cache, running the
// gated compute on a miss. hit reports an answer served from memory.
func (s *Server) evalScenario(ctx context.Context, route, key string, weight int64, fn func(context.Context) (any, error)) (v any, hit bool, err error) {
	v, out, err := s.cache.Do(ctx, key, func() (any, error) {
		return s.gate(ctx, route, weight, fn)
	})
	// A forwarded request that joined an in-flight computation is the
	// cross-instance deduplication sharding exists for: two peers routed
	// the same key here and the owner computed it once.
	if out.Joined && compute.Forwarded(ctx) {
		s.metrics.peerDedup.Inc()
	}
	return v, out.Hit, err
}

// analyzeScenario evaluates one analyze-op scenario through the shared
// cache and the robustness pipeline.
func (s *Server) analyzeScenario(ctx context.Context, built *scenario.Built) (*analysisBody, bool, error) {
	if err := built.CanAnalyze(); err != nil {
		return nil, false, err
	}
	v, hit, err := s.evalScenario(ctx, "analyze", built.AnalyzeKey(), analyzeWeight(built),
		func(ctx context.Context) (any, error) {
			return s.backend.Analyze(ctx, built)
		})
	if err != nil {
		return nil, hit, err
	}
	return v.(*analysisBody), hit, nil
}

// simulateScenario evaluates one simulate-op scenario through the
// shared cache and the robustness pipeline. The cache key — the
// canonical scenario's fingerprints, rate, and normalized simulator
// parameters — fully determines the run; the admission weight comes
// from the same canonical form (weights.go).
func (s *Server) simulateScenario(ctx context.Context, built *scenario.Built) (*simBody, bool, error) {
	if err := built.CanSimulate(); err != nil {
		return nil, false, err
	}
	if err := checkBuiltSimWork(built); err != nil {
		return nil, false, err
	}
	// Workload construction is re-run by the backend; building it here
	// keeps unsatisfiable workloads failing fast as 4xx before the gate.
	if _, err := built.Workload(); err != nil {
		return nil, false, err
	}
	v, hit, err := s.evalScenario(ctx, "simulate", built.SimulateKey(), simulateWeight(built),
		func(ctx context.Context) (any, error) {
			return s.backend.Simulate(ctx, built)
		})
	if err != nil {
		return nil, hit, err
	}
	return v.(*simBody), hit, nil
}

// handleAnalyze serves POST /v1/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	built, err := req.scenario().Build()
	if err != nil {
		writeClassified(w, err)
		return
	}
	body, hit, err := s.analyzeScenario(r.Context(), built)
	if err != nil {
		writeClassified(w, err)
		return
	}
	writeOutcome(w, hit)
	writeJSON(w, http.StatusOK, body)
}

// handleSimulate serves POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	built, err := req.scenario().Build()
	if err != nil {
		writeClassified(w, err)
		return
	}
	body, hit, err := s.simulateScenario(r.Context(), built)
	if err != nil {
		writeClassified(w, err)
		return
	}
	writeOutcome(w, hit)
	writeJSON(w, http.StatusOK, body)
}

// sweepSpec renders a sweep request as the grid the sync handler and
// sweep jobs run, wired to this server's cache and backend. Grids
// estimated over maxSweepPoints, and simulated grids whose largest point
// exceeds maxSimWork, are refused here, before admission and before
// enumeration.
func (s *Server) sweepSpec(req SweepRequest) (sweep.Spec, error) {
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
		Memo:         s.cache,
		Backend:      s.backend,
	}
	if n := spec.EstimatePoints(); n > maxSweepPoints {
		return sweep.Spec{}, fmt.Errorf("%w: sweep grid of %d points exceeds the %d-point limit",
			errBadRequest, n, maxSweepPoints)
	}
	if spec.WithSim {
		// Grid points take the default warm-up, a tenth of the cycles.
		cycles, maxN := simGrid(spec)
		if err := checkSimWork(cycles/10, cycles, maxN); err != nil {
			return sweep.Spec{}, err
		}
	}
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
// points requested concurrently — are computed once. Skipped grid
// combinations are reported, never silently dropped.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	spec, err := s.sweepSpec(req)
	if err != nil {
		writeClassified(w, err)
		return
	}
	// The whole grid goes through the gates as one weighted admission:
	// individual points still memoize per-point in the shared cache, but
	// a wide sweep cannot start while the semaphore is saturated.
	v, err := s.gate(r.Context(), "sweep", sweepWeight(spec),
		func(ctx context.Context) (any, error) {
			spec.Context = ctx
			return sweep.Run(spec)
		})
	if err != nil {
		writeClassified(w, err)
		return
	}
	res := v.(*sweep.Result)
	body := sweepBody{
		Points:  make([]sweepPointBody, len(res.Points)),
		Skipped: newSweepSkipBodies(res.Skipped),
	}
	for i, p := range res.Points {
		body.Points[i] = newSweepPointBody(p)
	}
	writeJSON(w, http.StatusOK, body)
}

// handleBatch serves POST /v1/batch: a list of scenarios evaluated on
// the sweep worker pool through the shared memo cache. Items fail
// independently — a bad scenario yields a per-item error while the rest
// evaluate — and the X-Cache header reads "hit" only when every item
// was served from cache.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := checkBatch(req); err != nil {
		writeClassified(w, err)
		return
	}
	items := make([]batchItemBody, len(req.Scenarios))
	// Item evaluation never returns an error to the pool: failures are
	// recorded per item so one bad scenario cannot abort its neighbors.
	err := sweep.ForEachPool(r.Context(), len(req.Scenarios), sweep.PoolOptions{
		Label: "batch",
	}, func(ctx context.Context, i int) error {
		items[i] = s.evalBatchItem(ctx, i, req.Scenarios[i])
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

// evalBatchItem evaluates one batch entry, folding any failure into the
// item body as a classified error.
func (s *Server) evalBatchItem(ctx context.Context, index int, item BatchItem) batchItemBody {
	body := batchItemBody{Index: index}
	op, err := item.operation()
	if err == nil {
		body.Op = op
		var built *scenario.Built
		built, err = item.Scenario.Build()
		if err == nil {
			switch op {
			case "analyze":
				body.Analysis, body.Cached, err = s.analyzeScenario(ctx, built)
			case "simulate":
				body.Simulation, body.Cached, err = s.simulateScenario(ctx, built)
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

type analysisBody = compute.Analysis

type simBody = compute.SimResult

type sweepPointBody = compute.Point

// newSweepPointBody renders one grid point for the wire. The sync sweep
// response, the async job's per-record stream, and the cluster sweep
// endpoint all ship this one shape (sweep.Point is an alias of it),
// which is what makes a streamed or peer-computed point byte-identical
// to the same point in a sync /v1/sweep body.
func newSweepPointBody(p sweep.Point) sweepPointBody { return p }

type sweepSkipBody struct {
	Scheme string `json:"scheme"`
	Model  string `json:"model"`
	N      int    `json:"n"`
	B      int    `json:"b"`
	Reason string `json:"reason"`
}

// newSweepSkipBodies renders a sweep's skipped combinations for the
// wire: the sync response body and a sweep job's summary.
func newSweepSkipBodies(skipped []sweep.Skip) []sweepSkipBody {
	out := make([]sweepSkipBody, len(skipped))
	for i, sk := range skipped {
		out[i] = sweepSkipBody{Scheme: sk.Scheme, Model: sk.Model, N: sk.N, B: sk.B, Reason: sk.Reason}
	}
	return out
}

type sweepBody struct {
	Points  []sweepPointBody `json:"points"`
	Skipped []sweepSkipBody  `json:"skipped"`
}

type batchItemBody struct {
	Index      int           `json:"index"`
	Op         string        `json:"op,omitempty"`
	Cached     bool          `json:"cached"`
	Error      *apiError     `json:"error,omitempty"`
	Analysis   *analysisBody `json:"analysis,omitempty"`
	Simulation *simBody      `json:"simulation,omitempty"`
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

// writeJSON marshals v and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		// Response bodies are plain data structs; this cannot happen.
		http.Error(w, `{"error":{"code":"internal_error","message":"response encoding failed","retryable":true}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
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
