// Command mbserve runs the multibus evaluation service: a JSON HTTP API
// in front of the analytic solver, the Monte-Carlo simulator, and the
// sweep engine, with a shared singleflight LRU so repeated and
// concurrent-identical requests are computed once.
//
// Usage:
//
//	mbserve -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/analyze -d '{
//	  "network": {"scheme": "full", "n": 16, "b": 8},
//	  "model":   {"kind": "hier"},
//	  "r": 1.0
//	}'
//
// Endpoints: POST /v1/analyze, /v1/simulate, /v1/sweep, /v1/batch,
// /v1/jobs (async sweep/batch with status polling, cursor-paged
// results, NDJSON/SSE streaming, and cancellation under /v1/jobs/{id});
// GET /healthz, /readyz, /metrics (Prometheus text), /debug/vars
// (the runtime's expvar JSON), /debug/pprof/. A sweep grid, sync or as
// a job, is capped at 65536 estimated points and a batch at 1024
// scenarios, so -jobs alone bounds the records the job store holds.
// The full contract lives in api/openapi.yaml. Structured access logs
// go to stderr; tune them with -log-level and -log-format. The server
// drains in-flight requests on SIGINT/SIGTERM before exiting; /healthz
// answers 503 draining during the drain window so load balancers stop
// routing here, and the job store drains after request traffic stops
// (queued jobs canceled, running jobs given the remaining budget).
//
// The robustness layer is tunable: -admit bounds concurrent compute (in
// admission units — see the README's Robustness section) and -queue
// bounds the wait queue behind it (full queue sheds 429 + Retry-After).
// Cached answers never age, so a resident key keeps answering while
// compute is failing or shedding.
//
// Cluster mode (README "Cluster mode", DESIGN.md §14, §16): start each
// instance with its own -self URL plus either a shared -peers seed list
// or -join with any running member's URL, and evaluations route to each
// key's consistent-hash owner, joining the owner's singleflight so
// identical requests anywhere in the cluster compute once. Membership
// is elastic: a background prober (period -probe-interval) suspects,
// confirms, and evicts peers that stop answering /healthz, and joiners
// announce themselves into the ring. Any instance partitions the sweep
// grids it serves across the ring. GET /readyz answers 503 until the
// instance holds its initial membership view (with -join: until the
// seed's view is adopted) — point load-balancer readiness there,
// liveness at /healthz. A single-instance deployment omits the cluster
// flags and pays no cluster overhead.
// The hidden -chaos flag injects seeded faults (latency, panics)
// into every computation for resilience testing — e.g.
// -chaos "latency=2s,latencyRate=1,seed=7" — and must never be set in
// production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"multibus/internal/chaos"
	"multibus/internal/cliutil"
	"multibus/internal/cluster"
	"multibus/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		cacheSize     = flag.Int("cache-size", service.DefaultCacheSize, "analysis cache capacity (entries)")
		timeout       = flag.Duration("timeout", service.DefaultTimeout, "per-request computation deadline")
		maxBody       = flag.Int64("max-body", service.DefaultMaxBodyBytes, "request body size limit (bytes)")
		drain         = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		admit         = flag.Int("admit", 0, "admission limit in compute units (0 = 2×GOMAXPROCS, min 4)")
		queue         = flag.Int("queue", 0, "admission wait-queue depth (0 = default, negative = shed immediately)")
		jobsMax       = flag.Int("jobs", 0, "max resident async jobs (0 = default)")
		chaosSpec     = flag.String("chaos", "", "fault injection spec, e.g. \"latency=2s,latencyRate=1,seed=7\" (testing only)")
		peers         = flag.String("peers", "", "comma-separated base URLs seeding the cluster membership (empty = single instance)")
		self          = flag.String("self", "", "this instance's own base URL (required with -peers or -join)")
		join          = flag.String("join", "", "base URL of a running cluster member to join through (alternative to -peers)")
		probeInterval = flag.Duration("probe-interval", 0, "membership health-probe period, jittered ±25% (0 = default 1s)")
		logFlags      = cliutil.RegisterLogFlags(flag.CommandLine)
	)
	flag.Parse()
	logger, err := logFlags.Logger(os.Stderr)
	if err == nil {
		var injector *chaos.Injector
		injector, err = buildInjector(logger, *chaosSpec)
		var backend *cluster.Backend
		if err == nil {
			backend, err = buildCluster(logger, clusterFlags{
				peers:         *peers,
				self:          *self,
				join:          *join,
				probeInterval: *probeInterval,
			})
		}
		if err == nil {
			err = run(logger, *addr, *drain, *join, backend, service.Options{
				CacheSize:    *cacheSize,
				Timeout:      *timeout,
				MaxBodyBytes: *maxBody,
				Logger:       logger,
				AdmissionLimit: func() int {
					if *admit < 0 {
						return 0
					}
					return *admit
				}(),
				QueueDepth: *queue,
				Chaos:      injector,
				JobsMax:    *jobsMax,
			})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbserve:", err)
		os.Exit(1)
	}
}

// buildInjector parses the -chaos spec into an injector (nil for an
// empty spec), logging loudly when fault injection is live: a chaos
// profile left on in production should be impossible to miss.
func buildInjector(logger *slog.Logger, spec string) (*chaos.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	cfg, err := chaos.Parse(spec)
	if err != nil {
		return nil, err
	}
	in, err := chaos.New(cfg)
	if err != nil {
		return nil, err
	}
	logger.Warn("chaos injection enabled", "spec", spec)
	return in, nil
}

// clusterFlags bundles the cluster-mode flag values.
type clusterFlags struct {
	peers         string
	self          string
	join          string
	probeInterval time.Duration
}

// buildCluster parses the cluster flags into a routing backend (nil
// when neither -peers nor -join is given: the single-instance path has
// no cluster layer at all). The backend owns a membership manager
// seeded from -peers — or from just -self in -join mode, where the
// actual peer set is adopted from the seed member once the listener is
// up (see run). The backend is injected as the service's compute
// backend; its metrics register into the server's registry once New
// has built it.
func buildCluster(logger *slog.Logger, cf clusterFlags) (*cluster.Backend, error) {
	if cf.peers == "" && cf.join == "" {
		if cf.self != "" {
			return nil, errors.New("-self needs -peers or -join")
		}
		return nil, nil
	}
	if cf.self == "" {
		return nil, errors.New("cluster mode needs -self (this instance's own URL)")
	}
	var list []string
	if cf.peers != "" {
		list = strings.Split(cf.peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
	}
	mgr, err := cluster.NewManager(cluster.ManagerOptions{
		Self:          cf.self,
		Peers:         list,
		ProbeInterval: cf.probeInterval,
	})
	if err != nil {
		return nil, err
	}
	b, err := cluster.New(cluster.Options{Manager: mgr})
	if err != nil {
		return nil, err
	}
	logger.Info("cluster mode", "self", cf.self, "peers", len(b.Ring().Peers()), "join", cf.join != "")
	return b, nil
}

// run starts the server and blocks until a termination signal has been
// handled. It is separated from main for testability.
func run(logger *slog.Logger, addr string, drain time.Duration, join string, backend *cluster.Backend, opts service.Options) error {
	if backend != nil {
		opts.Backend = backend
		opts.Cluster = backend.Manager()
	}
	srv, err := service.New(opts)
	if err != nil {
		return err
	}
	if backend != nil {
		backend.Register(srv.Metrics())
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address is logged (not just the flag value) so
	// scripts can use -addr :0 and scrape the chosen port.
	logger.Info("listening", "addr", ln.Addr().String())

	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Network-level guards; the computation deadline is enforced
		// per-request inside the handler.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if backend != nil {
		// Cluster startup, in order: join through the seed member (if
		// -join), open /readyz, then start the health prober. All after
		// the listener is up — peers probe back.
		if join != "" {
			joinCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
			if err := backend.Manager().Join(joinCtx, join); err != nil {
				logger.Warn("cluster join failed; continuing with local view", "seed", join, "err", err)
			}
			cancel()
		}
		srv.StartCluster(ctx)
		backend.Manager().Start(ctx)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Graceful departure first: announce the leave while this instance
	// still answers probes — then flip /healthz to 503 draining before
	// Shutdown so load balancers stop sending new work while in-flight
	// requests finish. The lame-duck pause keeps the listener accepting
	// while health checks fail — Shutdown closes the listener
	// immediately, and a balancer that never observes the 503 would
	// keep routing here until its connections start being refused.
	if backend != nil {
		leaveCtx, cancel := context.WithTimeout(context.Background(), drain/2)
		srv.LeaveCluster(leaveCtx)
		cancel()
	}
	srv.BeginDrain()
	logger.Info("shutting down", "drain", drain)
	lameDuck := 500 * time.Millisecond
	if drain < 2*lameDuck {
		lameDuck = drain / 4
	}
	time.Sleep(lameDuck)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// Request traffic has stopped; drain the async jobs on the remaining
	// budget (queued jobs cancel immediately, running jobs get until the
	// deadline before being canceled).
	srv.DrainJobs(shutdownCtx)
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("stopped")
	return nil
}
