// Command perfbench is the repository's end-to-end benchmark: it starts
// the real cmd/mbserve binary on loopback, drives it with a seeded
// closed loop of two keep-alive connections, checks every answer
// against the in-process reference, and prints the user-facing metrics.
// With -trace 1 it also replays the same request stream in-process,
// timing the calls into each layer, and prints the per-layer metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload analyze-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit code is 0 when every answer was correct, 1 when some answer
// was wrong or failed, and 2 when the benchmark could not run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 = report the per-layer metrics (adds a traced in-process replay)")
	bin := fs.String("mbserve", "", "path to the mbserve binary")
	out := fs.String("out", ".bench_build", "directory for server logs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		return fail(err)
	}
	if *bin == "" || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fail(fmt.Errorf("need -mbserve, -seconds ≥ 1 and -trace 0 or 1"))
	}
	logDir := filepath.Join(*out, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *traceFlag)

	m, err := measure(wl, *bin, logDir, time.Duration(*seconds)*time.Second)
	if err != nil {
		return fail(err)
	}
	v, err := verify(wl, m)
	if err != nil {
		return fail(err)
	}
	e2e := endToEnd(m, v)
	report := result{
		Correct:   v.warmFailed == 0 && v.failed == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   e2e.metrics,
	}
	printSummary(stdout, m, v, e2e)
	if *traceFlag == 1 {
		tr, err := traceRun(wl, m.urls)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: traced run:", err)
			report.Correct = false
		} else {
			dump := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, *seed))
			if err := writeSpans(dump, tr.spans); err != nil {
				return fail(err)
			}
			report.Metrics = perLayer(m, v, e2e, tr)
			printLayers(stdout, report.Metrics, dump)
		}
	}
	line, err := json.Marshal(report)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !report.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measurement is everything one run observed on the real servers.
type measurement struct {
	urls    []string
	setups  []time.Duration
	warm    []*phase
	window  *phase
	ticks   []cpuTick     // server CPU through the window
	hwm     int64         // Σ VmHWM at the end of the window, bytes
	steal   float64       // host steal share over the window
	loadCPU time.Duration // this process's CPU over the window
	// before and after are the /metrics scrapes of each instance taken
	// around the window.
	before, after [][]sample
}

// measure sets the servers up wl.setups times, then runs the timed window
// on the last set-up and stops every server it started.
func measure(wl *workload, bin, logDir string, dur time.Duration) (*measurement, error) {
	urls, err := instanceURLs(wl.instances)
	if err != nil {
		return nil, err
	}
	m := &measurement{urls: urls}
	// The load generator runs on one P: its goroutines mostly wait on
	// the network, and a second P would only spin on the cores the
	// servers need.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		insts []*instance
		cs    []*conn
	)
	defer func() {
		closeConns(cs)
		stopInstances(insts)
	}()
	for k := 0; k < wl.setups; k++ {
		closeConns(cs)
		stopInstances(insts)
		cs, insts = nil, nil
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		start := time.Now()
		insts, err = startInstances(ctx, bin, logDir, urls)
		if err == nil {
			err = waitReady(ctx, insts)
		}
		cancel()
		if err != nil {
			return nil, err
		}
		if cs, err = openConns(urls[0]); err != nil {
			return nil, err
		}
		var next atomic.Int64
		m.warm = append(m.warm, drive(cs, wl.route, wl, &next, int64(wl.warmup), 0))
		m.setups = append(m.setups, time.Since(start))
	}

	m.before = make([][]sample, len(insts))
	m.after = make([][]sample, len(insts))
	for k, in := range insts {
		if m.before[k], err = scrape(in.url); err != nil {
			return nil, err
		}
	}
	first, err := readTick(insts)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var err error
		m.ticks, err = sampleCPU(insts, []cpuTick{first}, stop)
		sampled <- err
	}()
	var next atomic.Int64
	next.Store(int64(wl.warmup))
	m.window = drive(cs, wl.route, wl, &next, 0, dur)
	close(stop)
	if err := <-sampled; err != nil {
		return nil, err
	}
	m.loadCPU = selfCPU() - self0
	m.steal = stealShare(m.ticks[0].host, m.ticks[len(m.ticks)-1].host)
	for k, in := range insts {
		if m.after[k], err = scrape(in.url); err != nil {
			return nil, err
		}
		hwm, err := procHWM(in.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		m.hwm += hwm
	}
	return m, nil
}

// verdict is the outcome of checking every response of a run.
type verdict struct {
	attempted, failed    int // timed window
	transport, non200    int // window failures by kind
	mismatched           int // window bodies that differ from the reference
	checked              int // window bodies compared byte-for-byte
	warmFailed           int // failures in the warm-up passes
	ok                   []bool
	firstMismatchRequest string
}

// verify checks every call: a transport error, a non-200 or a body that
// differs from the in-process reference is a failure.
func verify(wl *workload, m *measurement) (*verdict, error) {
	phases := append(append([]*phase(nil), m.warm...), m.window)
	var want [][]byte
	for _, p := range phases {
		for _, c := range p.calls {
			if c.status == 200 && (wl.sampled == nil || wl.sampled(c.index)) {
				want = append(want, wl.body(c.index))
			}
		}
	}
	refs, err := references(wl.route, want, conns)
	if err != nil {
		return nil, err
	}
	v := &verdict{}
	for pi, p := range phases {
		window := pi == len(phases)-1
		for k, c := range p.calls {
			ok := true
			switch {
			case c.status == 0:
				ok = false
				if window {
					v.transport++
				}
			case c.status != 200:
				ok = false
				if window {
					v.non200++
				}
			case wl.sampled == nil || wl.sampled(c.index):
				req := wl.body(c.index)
				ok = bytes.Equal(p.body(k), refs[string(req)])
				if window {
					v.checked++
				}
				if !ok && v.firstMismatchRequest == "" {
					v.firstMismatchRequest = string(req)
				}
			default:
				ok = shapeCheck(wl.route, p.body(k)) == nil
			}
			if !ok && c.status == 200 && window {
				v.mismatched++
			}
			switch {
			case window:
				v.attempted++
				if !ok {
					v.failed++
				}
				v.ok = append(v.ok, ok)
			case !ok:
				v.warmFailed++
			}
		}
	}
	return v, nil
}

// e2eReport holds the end-to-end metrics and the figures printed beside
// them.
type e2eReport struct {
	metrics    map[string]metric
	p50Ms      float64
	p99        tail   // over the whole window
	tailGroups []tail // the per-group tails latency_p99_ms is the median of
	slices     []slice
	successes  int
}

func endToEnd(m *measurement, v *verdict) e2eReport {
	var lat []float64
	var done []time.Time // completion time of each success
	for k, c := range m.window.calls {
		if v.ok[k] {
			lat = append(lat, c.lat.Seconds()*1e3)
			done = append(done, m.window.began.Add(c.start+c.lat))
		}
	}
	r := e2eReport{successes: len(lat), metrics: map[string]metric{}}
	secs := make([]float64, len(m.setups))
	for k, s := range m.setups {
		secs[k] = s.Seconds()
	}
	r.metrics["setup_s"] = metric{median(secs), "s"}
	r.metrics["success_ratio"] = metric{float64(len(lat)) / float64(max(v.attempted, 1)), "ratio"}
	r.metrics["peak_rss_mb"] = metric{float64(m.hwm) / (1 << 20), "MB"}

	// Rates, CPU per request and the tail are taken per one-second
	// slice of the window and reported as the median over slices, so a
	// second in which the host stole the CPU moves them less.
	sl := slices(m.ticks, done, lat)
	var rates, cpus, tails []float64
	for _, s := range sl {
		rates = append(rates, float64(len(s.lat))/s.dur.Seconds())
		if len(s.lat) > 0 {
			cpus = append(cpus, float64(s.cpu.Microseconds())/float64(len(s.lat)))
		}
	}
	r.slices = sl
	r.tailGroups = tailGroups(sl)
	for _, g := range r.tailGroups {
		tails = append(tails, g.value)
	}
	r.metrics["throughput_rps"] = metric{median(rates), "req/s"}
	if len(cpus) > 0 {
		r.metrics["server_cpu_us_per_req"] = metric{median(cpus), "us"}
	}
	sort.Float64s(lat)
	if len(lat) > minTail {
		r.p50Ms = median(lat)
		r.p99 = tailPercentile(lat, 0.99)
		r.metrics["latency_p50_ms"] = metric{r.p50Ms, "ms"}
	}
	if len(tails) > 0 {
		r.metrics["latency_p99_ms"] = metric{median(tails), "ms"}
	}
	return r
}

// slice is one interval between CPU samples of the window.
type slice struct {
	dur   time.Duration
	cpu   time.Duration
	steal float64   // host steal share
	lat   []float64 // latencies (ms) of the successes completed in it
}

// minSlice drops the sliver between the last full second and the end
// of the window.
const minSlice = 500 * time.Millisecond

// slices cuts the window at the CPU samples and assigns each success to
// the slice it completed in.
func slices(ticks []cpuTick, done []time.Time, lat []float64) []slice {
	if len(ticks) < 2 {
		return nil
	}
	out := make([]slice, len(ticks)-1)
	for k := range out {
		out[k].dur = ticks[k+1].at.Sub(ticks[k].at)
		out[k].cpu = ticks[k+1].cpu - ticks[k].cpu
		out[k].steal = stealShare(ticks[k].host, ticks[k+1].host)
	}
	for j, t := range done {
		k := sort.Search(len(ticks), func(k int) bool { return ticks[k].at.After(t) }) - 1
		if k >= 0 && k < len(out) {
			out[k].lat = append(out[k].lat, lat[j])
		}
	}
	kept := out[:0]
	for _, s := range out {
		if s.dur >= minSlice {
			kept = append(kept, s)
		}
	}
	return kept
}

// minTailGroup is the fewest samples whose p99 leaves minTail above it.
const minTailGroup = 100 * minTail

// tailGroups merges consecutive slices until each group holds at least
// minTailGroup latencies and returns each group's p99; a short last
// group joins the one before it.
func tailGroups(sl []slice) []tail {
	var groups [][]float64
	var cur []float64
	for _, s := range sl {
		cur = append(cur, s.lat...)
		if len(cur) >= minTailGroup {
			groups, cur = append(groups, cur), nil
		}
	}
	if len(cur) > 0 {
		if len(groups) == 0 {
			groups = append(groups, cur)
		} else {
			groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
		}
	}
	var out []tail
	for _, g := range groups {
		if len(g) > minTail {
			sort.Float64s(g)
			out = append(out, tailPercentile(g, 0.99))
		}
	}
	return out
}

func printSummary(w io.Writer, m *measurement, v *verdict, r e2eReport) {
	fmt.Fprintf(w, "servers: %v (setups %v)\n", m.urls, m.setups)
	fmt.Fprintf(w, "window: %.3f s, %d attempted, %d failed (%d transport, %d non-200, %d body mismatches), %d bodies compared with the reference; warm-up failures %d\n",
		m.window.elapsed.Seconds(), v.attempted, v.failed, v.transport, v.non200, v.mismatched, v.checked, v.warmFailed)
	if v.firstMismatchRequest != "" {
		fmt.Fprintf(w, "first mismatching request: %s\n", v.firstMismatchRequest)
	}
	fmt.Fprintf(w, "latency: p50 %.4f ms; whole-window tail p%.2f %.4f ms with %d of %d samples beyond it\n",
		r.p50Ms, r.p99.pct, r.p99.value, r.p99.beyond, r.p99.samples)
	for k, g := range r.tailGroups {
		fmt.Fprintf(w, "  tail group %d: p%.2f %.4f ms with %d of %d samples beyond it\n", k, g.pct, g.value, g.beyond, g.samples)
	}
	for k, s := range r.slices {
		cpu := 0.0
		if len(s.lat) > 0 {
			cpu = float64(s.cpu.Microseconds()) / float64(len(s.lat))
		}
		fmt.Fprintf(w, "  slice %d: %.3f s, host steal %.1f%%, %d ok, %.1f req/s, %.1f us server CPU/req, p50 %.4f ms\n",
			k, s.dur.Seconds(), 100*s.steal, len(s.lat), float64(len(s.lat))/s.dur.Seconds(), cpu, median(s.lat))
	}
	loadPct := 100 * m.loadCPU.Seconds() / m.window.elapsed.Seconds()
	fmt.Fprintf(w, "health: host steal %.2f%% of CPU time over the window, load generator %.1f%% of one CPU (%.1f us/req)\n",
		100*m.steal, loadPct, float64(m.loadCPU.Microseconds())/float64(max(r.successes, 1)))
	errorRate := float64(v.failed) / float64(max(v.attempted, 1))
	fmt.Fprintf(w, "%-24s %14s  %s\n", "metric", "value", "unit")
	for _, k := range sortedKeys(r.metrics) {
		fmt.Fprintf(w, "%-24s %14.6g  %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-24s %14.6g  %s\n", "error_rate", errorRate, "ratio")
}

func printLayers(w io.Writer, ms map[string]metric, dump string) {
	fmt.Fprintf(w, "per-layer (spans in %s)\n", dump)
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "%-30s %14.6g  %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys(ms map[string]metric) []string {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
