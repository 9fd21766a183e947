package service

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"multibus/internal/cache"
	"multibus/internal/jobs"
	"multibus/internal/obs"
)

// Metric families exposed at GET /metrics. The vocabulary is shared
// with the bench pipeline: request latencies use the same
// count/sum/bucket histogram shape BENCH_*.json records, and cache
// gauges mirror cache.Stats field for field.
const (
	metricRequestsTotal   = "mbserve_requests_total"
	metricResponsesTotal  = "mbserve_responses_total"
	metricDurationSeconds = "mbserve_request_duration_seconds"
	metricCacheRequests   = "mbserve_cache_requests_total"
	metricBatchItems      = "mbserve_batch_items_total"
	metricSweepPoints     = "mbserve_sweep_points_total"

	// Robustness-layer families (DESIGN.md §11).
	metricInflightCompute   = "mbserve_inflight_compute"
	metricQueueDepth        = "mbserve_queue_depth"
	metricAdmissionCapacity = "mbserve_admission_capacity"
	metricQueueWaitSeconds  = "mbserve_queue_wait_seconds"
	metricShedTotal         = "mbserve_shed_total"
	metricPanicsTotal       = "mbserve_panics_total"

	// Async-job families (DESIGN.md §13).
	metricJobsTotal    = "mbserve_jobs_total"
	metricJobsRunning  = "mbserve_jobs_active"
	metricJobsQueued   = "mbserve_jobs_queued"
	metricJobsResident = "mbserve_jobs_resident"
	metricJobRecords   = "mbserve_job_records_total"

	// Cluster family (DESIGN.md §14): forwarded requests that joined an
	// in-flight computation on this instance — the cross-instance dedup
	// consistent-hash routing exists for. Peer-side client metrics
	// (mbserve_peer_requests_total, ring gauges) are registered by
	// internal/cluster into this same registry.
	metricPeerDedup = "mbserve_peer_dedup_total"
)

// serverMetrics bundles one Server's obs registry and the instruments
// its handlers touch on the hot path. Everything here is per-instance:
// two Servers in one process (a daemon plus a test fixture, or two test
// servers side by side) report independent numbers — the property the
// old process-global expvar publication violated.
type serverMetrics struct {
	reg         *obs.Registry
	batchItems  *obs.Counter
	sweepPoints *obs.Counter
	panics      *obs.Counter
	peerDedup   *obs.Counter
	queueWait   *obs.Histogram
}

// shed resolves the per-route shed counter (admission queue full →
// 429). Registry lookups are a mutex and a map probe — cheap enough for
// the shedding path, which is by definition not doing compute.
func (m *serverMetrics) shed(route string) *obs.Counter {
	return m.reg.Counter(metricShedTotal,
		"requests shed by admission control (429 overloaded)", obs.L("route", route))
}

// bindAdmission registers the semaphore's live gauges and the queue
// wait histogram.
func (m *serverMetrics) bindAdmission(a *admission) {
	m.queueWait = m.reg.Histogram(metricQueueWaitSeconds,
		"time spent queued for admission before compute (seconds)", nil)
	m.reg.GaugeFunc(metricInflightCompute,
		"admission units currently held by in-flight compute",
		func() float64 { return float64(a.Inflight()) })
	m.reg.GaugeFunc(metricQueueDepth,
		"acquisitions waiting in the admission queue",
		func() float64 { return float64(a.Queued()) })
	m.reg.GaugeFunc(metricAdmissionCapacity,
		"configured admission capacity (units)",
		func() float64 { return float64(a.Capacity()) })
}

// jobHooks returns the store's instrumentation callbacks: one
// mbserve_jobs_total tick per state transition (labeled by op and
// destination state) and one record counter tick per emitted result
// record.
func (m *serverMetrics) jobHooks() jobs.Hooks {
	return jobs.Hooks{
		Transition: func(op string, to jobs.State) {
			m.reg.Counter(metricJobsTotal,
				"async job state transitions by op and destination state",
				obs.L("op", op), obs.L("state", string(to))).Inc()
		},
		Emitted: func(n int64) {
			m.reg.Counter(metricJobRecords,
				"result records emitted by async jobs").Add(n)
		},
	}
}

// bindJobs registers live gauges over the job store's counters.
func (m *serverMetrics) bindJobs(st *jobs.Store) {
	m.reg.GaugeFunc(metricJobsRunning,
		"async jobs currently running (admitted compute)",
		func() float64 { return float64(st.Stats().Running) })
	m.reg.GaugeFunc(metricJobsQueued,
		"async jobs waiting in the store's FIFO dispatch queue",
		func() float64 { return float64(st.Stats().Queued) })
	m.reg.GaugeFunc(metricJobsResident,
		"async jobs resident in the store (any state)",
		func() float64 { return float64(st.Stats().Resident) })
}

// newServerMetrics builds the registry and binds the cache's stats to
// instance-scoped gauges, read live at scrape time.
func newServerMetrics(c *cache.Cache) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		batchItems: reg.Counter(metricBatchItems,
			"batch scenarios evaluated on the worker pool"),
		sweepPoints: reg.Counter(metricSweepPoints,
			"sweep grid points evaluated on the worker pool"),
		panics: reg.Counter(metricPanicsTotal,
			"panics recovered by the middleware"),
		peerDedup: reg.Counter(metricPeerDedup,
			"forwarded peer requests that joined an in-flight local computation"),
	}
	stat := func(name, help string, read func(cache.Stats) int64) {
		reg.GaugeFunc(name, help, func() float64 { return float64(read(c.Stats())) })
	}
	stat("mbserve_cache_hits", "cumulative cache lookups answered from the LRU",
		func(s cache.Stats) int64 { return s.Hits })
	stat("mbserve_cache_misses", "cumulative cache lookups that missed (computed, joined a flight, or found nothing)",
		func(s cache.Stats) int64 { return s.Misses })
	stat("mbserve_cache_shared_flights", "cumulative lookups that joined another caller's in-flight computation",
		func(s cache.Stats) int64 { return s.SharedFlights })
	stat("mbserve_cache_evictions", "cumulative entries evicted to respect the capacity bound",
		func(s cache.Stats) int64 { return s.Evictions })
	stat("mbserve_cache_errors", "cumulative computations that failed (never cached)",
		func(s cache.Stats) int64 { return s.Errors })
	stat("mbserve_cache_entries", "resident cache entries",
		func(s cache.Stats) int64 { return int64(s.Size) })
	stat("mbserve_cache_capacity", "configured cache capacity",
		func(s cache.Stats) int64 { return int64(s.Capacity) })
	return m
}

// statusRecorder captures the status code and body size a handler
// writes, for the response counter and the access log.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wroteHeader {
		r.status = code
		r.wroteHeader = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers (the
// jobs NDJSON/SSE endpoint) can push records through the middleware;
// net/http's Flush commits the headers, so it counts as writing them.
func (r *statusRecorder) Flush() {
	f, ok := r.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	r.wroteHeader = true
	f.Flush()
}

// observe records one completed request in the registry and emits the
// access log record. It runs after the handler, outside the request's
// critical path only in the sense that the response bytes are already
// flushed.
func (s *Server) observe(route string, r *http.Request, rec *statusRecorder, elapsed time.Duration, latency *obs.Histogram, cacheHit, cacheMiss *obs.Counter) {
	latency.Observe(elapsed.Seconds())
	s.metrics.reg.Counter(metricResponsesTotal, "HTTP responses by route and status",
		obs.L("route", route), obs.L("status", strconv.Itoa(rec.status))).Inc()
	xc := rec.Header().Get("X-Cache")
	switch xc {
	case cacheHitState:
		cacheHit.Inc()
	case cacheMissState:
		cacheMiss.Inc()
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("route", route),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.status),
		slog.Int64("bytes", rec.bytes),
		slog.Duration("duration", elapsed),
		slog.String("cache", xc),
	)
}
