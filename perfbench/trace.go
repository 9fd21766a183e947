package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"multibus/internal/analytic"
	"multibus/internal/cache"
	"multibus/internal/cluster"
	"multibus/internal/compute"
	"multibus/internal/scenario"
	"multibus/internal/service"
	"multibus/internal/sim"
	"multibus/internal/sweep"
)

// span is one timed call into a layer. Spans of one request share Req
// (its stream index); Parent is the enclosing span's ID, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A tracer that is off
// reads no clock and records nothing, which is what the overhead
// comparison measures against.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its ID (-1 when the tracer is off).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// covered is how much of [start, end) the union of the intervals
// covers; overlapping intervals (parallel children) count once.
func covered(start, end int64, ivs []span) int64 {
	sorted := append([]span(nil), ivs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	var total int64
	cur := start // everything before cur is already counted
	for _, iv := range sorted {
		s, e := max(iv.Start, cur), min(iv.End, end)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. The service chain — decode → build → key → lookup →
// compute → encode — uses the stage names the serve path shares with
// its metrics; compute is one of the three compute names.
const (
	spanChain    = "service.chain"
	spanHandler  = "service.handler"
	spanDecode   = "service.decode"
	spanBuild    = "scenario.build"
	spanKey      = "scenario.key"
	spanLookup   = "cache.lookup"
	spanAnalyze  = "compute.analyze"
	spanLocal    = "cluster.local"
	spanForward  = "cluster.forward"
	spanEncode   = "service.encode"
	spanSweepRun = "sweep.run"
	spanPoint    = "compute.sweep_point"
	spanSimRun   = "sim.run"
	spanClassify = "analytic.classify"
)

// env is an in-process copy of the served stack the traced run drives:
// the same service.Server (and, for the cluster workload, the same
// two-peer ring on the same URLs) the mbserve processes run.
type env struct {
	route   string
	handler http.Handler
	cache   *cache.Cache    // the handler's own cache: the chain's lookup target
	backend compute.Backend // the handler's compute backend
	owner   func(key string) string
	memo    *cache.Cache // sweep chain memo, apart from the handler's cache
	closers []func()
	rec     recorder
}

func (e *env) close() {
	for k := len(e.closers) - 1; k >= 0; k-- {
		e.closers[k]()
	}
}

// accessLogger formats every access record the way mbserve's default
// text logger does, then discards it, so the middleware cost includes
// the log line.
func accessLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

func newEnv(wl *workload, urls []string) (*env, error) {
	e := &env{route: wl.route}
	if wl.instances == 1 {
		srv, err := service.New(service.Options{Logger: accessLogger()})
		if err != nil {
			return nil, err
		}
		e.handler, e.cache, e.backend = srv.Handler(), srv.Cache(), compute.Local()
		e.owner = func(string) string { return spanAnalyze }
		e.memo, err = cache.New(service.DefaultCacheSize)
		return e, err
	}
	// The cluster: every peer a service.Server behind a cluster.Backend.
	// The peers keep the run's URLs, which the ring hashes, but listen on
	// ports of their own that the env's peer transport dials instead, so
	// two envs can run side by side. Requests enter through the first.
	listeners := map[string]net.Listener{}
	for _, url := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.closers = append(e.closers, func() { ln.Close() })
		listeners[strings.TrimPrefix(url, "http://")] = ln
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var dialer net.Dialer
	transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if ln, ok := listeners[addr]; ok {
			addr = ln.Addr().String()
		}
		return dialer.DialContext(ctx, network, addr)
	}
	peerHTTP := &http.Client{Transport: transport}
	e.closers = append(e.closers, peerHTTP.CloseIdleConnections)
	var backends []*cluster.Backend
	var servers []*service.Server
	for _, url := range urls {
		mgr, err := cluster.NewManager(cluster.ManagerOptions{Self: url, Peers: urls, HTTP: peerHTTP})
		if err == nil {
			var b *cluster.Backend
			if b, err = cluster.New(cluster.Options{Manager: mgr}); err == nil {
				var srv *service.Server
				srv, err = service.New(service.Options{Logger: accessLogger(), Backend: b, Cluster: mgr})
				if err == nil {
					b.Register(srv.Metrics())
					backends, servers = append(backends, b), append(servers, srv)
				}
			}
		}
		if err != nil {
			e.close()
			return nil, err
		}
		hs := &http.Server{Handler: servers[len(servers)-1].Handler()}
		ln := listeners[strings.TrimPrefix(url, "http://")]
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = hs.Serve(ln) // returns ErrServerClosed on Close
		}()
		e.closers = append(e.closers, func() { hs.Close(); <-served })
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.closers = append(e.closers, cancel)
	for _, srv := range servers {
		srv.StartCluster(ctx)
	}
	for _, srv := range servers {
		for !srv.ClusterReady() {
			time.Sleep(time.Millisecond)
		}
	}
	self := urls[0]
	e.handler, e.cache, e.backend = servers[0].Handler(), servers[0].Cache(), backends[0]
	e.owner = func(key string) string {
		if backends[0].Ring().Owner(key) == self {
			return spanLocal
		}
		return spanForward
	}
	return e, nil
}

// recorder is a reusable ResponseWriter for the in-process handler;
// httptest's recorder would clone the header map inside the timed call.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header {
	if r.h == nil {
		r.h = http.Header{}
	}
	return r.h
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.h)
	r.status = 0
	r.body.Reset()
}

// serve runs the in-process handler on a prebuilt request, timing only
// ServeHTTP, and returns the response body.
func (e *env) serve(tr *tracer, req int, body []byte) ([]byte, error) {
	hreq, err := http.NewRequest(http.MethodPost, "http://127.0.0.1"+e.route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	e.rec.reset()
	id := tr.begin(spanHandler, -1, req)
	e.handler.ServeHTTP(&e.rec, hreq)
	tr.end(id)
	if e.rec.status != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: status %d: %s", e.route, e.rec.status, e.rec.body.Bytes())
	}
	return e.rec.body.Bytes(), nil
}

// chainAnalyze replays the analyze path one layer call at a time.
func (e *env) chainAnalyze(tr *tracer, req int, body []byte) ([]byte, error) {
	root := tr.begin(spanChain, -1, req)
	s := tr.begin(spanDecode, root, req)
	var ar service.AnalyzeRequest
	err := decodeStrict(body, &ar)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(spanBuild, root, req)
	built, err := scenario.Scenario{Network: ar.Network, Model: ar.Model, R: ar.R}.Build()
	if err == nil {
		err = built.CanAnalyze()
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(spanKey, root, req)
	key := built.AnalyzeKey()
	tr.end(s)
	s = tr.begin(spanLookup, root, req)
	v, hit := e.cache.Get(key)
	tr.end(s)
	var res *compute.Analysis
	if hit {
		res = v.(*compute.Analysis)
	} else {
		s = tr.begin(e.owner(key), root, req)
		res, err = e.backend.Analyze(context.Background(), built)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s = tr.begin(spanEncode, root, req)
	out, err := encodeBody(res)
	tr.end(s)
	tr.end(root)
	return out, err
}

// timedBackend wraps the local backend so sweep.Run's calls into the
// compute layer become child spans of the sweep.run span.
type timedBackend struct {
	tr          *tracer
	parent, req int
}

func (t timedBackend) Analyze(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
	return compute.Local().Analyze(ctx, b)
}

func (t timedBackend) Simulate(ctx context.Context, b *scenario.Built) (*compute.SimResult, error) {
	return compute.Local().Simulate(ctx, b)
}

func (t timedBackend) SweepPoint(ctx context.Context, jb compute.PointJob) (compute.Point, error) {
	id := t.tr.begin(spanPoint, t.parent, t.req)
	pt, err := compute.Local().SweepPoint(ctx, jb)
	t.tr.end(id)
	return pt, err
}

// chainSweep replays the sweep path: decode → build → sweep.run (with
// one compute span per grid point) → encode.
func (e *env) chainSweep(tr *tracer, req int, body []byte) ([]byte, error) {
	root := tr.begin(spanChain, -1, req)
	s := tr.begin(spanDecode, root, req)
	var sr service.SweepRequest
	err := decodeStrict(body, &sr)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(spanBuild, root, req)
	spec, err := sweepSpec(body)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	run := tr.begin(spanSweepRun, root, req)
	spec.Memo = e.memo
	spec.Backend = timedBackend{tr: tr, parent: run, req: req}
	res, err := sweep.Run(spec)
	tr.end(run)
	if err != nil {
		return nil, err
	}
	s = tr.begin(spanEncode, root, req)
	out, err := encodeBody(newSweepBody(res))
	tr.end(s)
	tr.end(root)
	return out, err
}

// simProbe times one simulation of a request's grid point outside the
// chain and returns the simulated cycles (warm-up included).
func simProbe(tr *tracer, req int, body []byte) (int, error) {
	spec, err := sweepSpec(body)
	if err != nil {
		return 0, err
	}
	built, err := scenario.Scenario{
		Network: scenario.Network{Scheme: spec.Schemes[req%len(spec.Schemes)].Scheme, N: spec.Ns[0], B: spec.Bs[req%len(spec.Bs)]},
		Model:   scenario.Model{Kind: scenario.ModelHier},
		R:       spec.Rs[req%len(spec.Rs)],
		Sim:     &scenario.Sim{Cycles: spec.SimCycles, Seed: spec.Seed},
	}.Build()
	if err != nil {
		return 0, err
	}
	cfg, err := built.SimConfig()
	if err != nil {
		return 0, err
	}
	id := tr.begin(spanSimRun, -1, req)
	_, err = sim.RunContext(context.Background(), cfg)
	tr.end(id)
	return cfg.Cycles + cfg.Warmup, err
}

// replayPass runs one in-process pass over the workload's first traced
// window requests and returns its wall time. Every request goes through
// the layer chain on one env and through the handler on a twin env that
// has seen exactly the same requests, both warmed the way the set-up
// warms the real server. Neither sees state the other left behind — a
// cluster peer's cache warmed by the chain's forward, say — so each
// request's chain and handler spans start from the same state and can be
// paired; run back to back, they also see the same host speed.
func replayPass(wl *workload, urls []string, tr *tracer) (time.Duration, error) {
	chain := (*env).chainAnalyze
	if wl.route == "/v1/sweep" {
		chain = (*env).chainSweep
	}
	var envs [2]*env // the chain's, the handler's
	for k := range envs {
		e, err := newEnv(wl, urls)
		if err != nil {
			return 0, err
		}
		defer e.close()
		for i := 0; i < min(wl.warmup, 256); i++ {
			if _, err := e.serve(newTracer(false), i, wl.body(i)); err != nil {
				return 0, err
			}
		}
		envs[k] = e
	}
	start := time.Now()
	for i := wl.warmup; i < wl.warmup+wl.traced; i++ {
		want, err := chain(envs[0], tr, i, wl.body(i))
		if err != nil {
			return 0, fmt.Errorf("traced request %d: %w", i, err)
		}
		got, err := envs[1].serve(tr, i, wl.body(i))
		if err != nil {
			return 0, fmt.Errorf("traced request %d: %w", i, err)
		}
		// The layer chain's body is the reference for the handler's.
		if !bytes.Equal(want, got) {
			return 0, fmt.Errorf("traced request %d: handler body differs from the layer chain's", i)
		}
	}
	return time.Since(start), nil
}

// traceReport is what the traced run measured.
type traceReport struct {
	spans       []span
	overheadPct float64
	simCycles   []int // per sim.run span, in span order
}

// traceRun replays the workload in-process three times — a warm pass
// and a pass with spans off, then the traced pass — and probes
// analytic.Classify on each distinct network and, for sweeps, the
// simulator, outside the chain.
func traceRun(wl *workload, urls []string) (*traceReport, error) {
	if _, err := replayPass(wl, urls, newTracer(false)); err != nil {
		return nil, err
	}
	off, err := replayPass(wl, urls, newTracer(false))
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	on, err := replayPass(wl, urls, tr)
	if err != nil {
		return nil, err
	}
	rep := &traceReport{overheadPct: 100 * (on.Seconds() - off.Seconds()) / off.Seconds()}
	if wl.route == "/v1/sweep" {
		for i := wl.warmup; i < wl.warmup+wl.traced; i++ {
			cycles, err := simProbe(tr, i, wl.body(i))
			if err != nil {
				return nil, err
			}
			rep.simCycles = append(rep.simCycles, cycles)
		}
	} else {
		// Probe each distinct network once per request that first used it.
		seen := map[string]bool{}
		for i := wl.warmup; i < wl.warmup+wl.traced; i++ {
			built, err := buildAnalyze(wl.body(i))
			if err != nil {
				return nil, err
			}
			n := built.Scenario.Network
			k := fmt.Sprintf("%s/%d/%d/%d", n.Scheme, n.N, n.M, n.B)
			if seen[k] {
				continue
			}
			seen[k] = true
			// One untimed call first, so no probe pays a cold start.
			if _, err := analytic.Classify(built.Network); err != nil {
				return nil, err
			}
			for r := 0; r < 5; r++ {
				id := tr.begin(spanClassify, -1, i)
				_, err := analytic.Classify(built.Network)
				tr.end(id)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	rep.spans = tr.spans
	if len(rep.spans) == 0 {
		return nil, errors.New("traced run recorded no spans")
	}
	return rep, nil
}
