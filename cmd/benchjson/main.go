// Command benchjson converts `go test -bench` output into a stable JSON
// record so benchmark numbers can be committed and compared across PRs.
// It reads the benchmark text from stdin, echoes it unchanged to stdout
// (so `make bench` still shows live progress), and writes the parsed
// JSON to the file named by -o. Repeated runs of one benchmark
// (`-count=N`) are collapsed to the best ns/op and allocs/op before
// writing, so the record tracks the machine's unthrottled envelope.
//
// Usage:
//
//	go test -bench=. -benchmem -run=NONE . | benchjson -o BENCH_sim.json
//	benchjson -compare BENCH_sim.json BENCH_new.json
//
// In -compare mode benchjson reads two reports it previously wrote and
// fails (exit 1) when a pinned benchmark regressed: ns/op grew more than
// -ns-tolerance (default 20%), allocs/op grew (beyond a 0.1% slack that
// absorbs sync.Pool timing jitter on large counts — below 1000
// allocs/op zero growth is allowed), or the benchmark disappeared from
// the new report. Repeated runs (-count=N) of one benchmark are
// collapsed to their best result before comparing, which suppresses
// scheduler noise. Pinned benchmarks are selected by name prefix
// (-pins, default the analytic hot-path set plus the topology
// build/key benchmarks and the large analyze-miss serve benchmark);
// `make bench-compare` wires this against the committed baseline.
//
// Each benchmark line like
//
//	BenchmarkSimFull-8  215438  5563 ns/op  2.72 req/cycle  0 B/op  0 allocs/op
//
// becomes an entry with name, iterations, ns/op, B/op, allocs/op, and
// any custom metrics under "extra". goos/goarch/pkg header lines fill
// the top-level environment fields.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output JSON file (required unless -compare)")
	compareMode := flag.Bool("compare", false, "compare two report files (benchjson -compare OLD NEW) instead of parsing stdin")
	pins := flag.String("pins", "BenchmarkTable,BenchmarkAnalytic,BenchmarkBinomialRow,BenchmarkBuildKey,BenchmarkTopology,BenchmarkServeAnalyzeMissLarge",
		"comma-separated benchmark name prefixes checked in -compare mode")
	nsTol := flag.Float64("ns-tolerance", 0.20, "allowed fractional ns/op growth in -compare mode")
	flag.Parse()
	if *compareMode {
		os.Exit(runCompare(flag.Args(), strings.Split(*pins, ","), *nsTol, os.Stderr))
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o output file is required")
		os.Exit(2)
	}
	report, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	report.Benchmarks = collapseBest(report.Benchmarks)
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

// runCompare implements -compare: load the old (baseline) and new
// reports, diff the pinned benchmarks, and return the process exit code.
func runCompare(args []string, pins []string, nsTol float64, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "benchjson: -compare needs exactly two report files: OLD NEW")
		return 2
	}
	old, err := loadReport(args[0])
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 1
	}
	cur, err := loadReport(args[1])
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 1
	}
	failures := compareReports(old, cur, pins, nsTol, w)
	if failures > 0 {
		fmt.Fprintf(w, "benchjson: %d pinned benchmark(s) regressed vs %s\n", failures, args[0])
		return 1
	}
	fmt.Fprintf(w, "benchjson: no regressions in pinned benchmarks vs %s\n", args[0])
	return 0
}

// loadReport reads a report previously written by benchjson -o.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// pinned reports whether a benchmark name starts with one of the pin
// prefixes (empty prefixes, e.g. from a stray comma, never match).
func pinned(name string, pins []string) bool {
	for _, p := range pins {
		p = strings.TrimSpace(p)
		if p != "" && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// collapseBest reduces repeated runs of the same benchmark to one entry
// per name in first-seen order, keeping each benchmark's best (minimum)
// ns/op and allocs/op. The recorded report then reflects the machine's
// unthrottled envelope rather than whichever run caught a load spike.
func collapseBest(benches []Benchmark) []Benchmark {
	best := bestByName(benches)
	out := benches[:0]
	seen := make(map[string]bool, len(best))
	for _, b := range benches {
		if seen[b.Name] {
			continue
		}
		seen[b.Name] = true
		out = append(out, best[b.Name])
	}
	return out
}

// bestByName collapses repeated runs of the same benchmark (`go test
// -count=N`) into one entry per name, keeping the minimum ns/op and
// allocs/op seen. Scheduler and GC noise only ever slow a run down, so
// best-of-N is the stable estimate to gate on.
func bestByName(benches []Benchmark) map[string]Benchmark {
	m := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		prev, ok := m[b.Name]
		if !ok {
			m[b.Name] = b
			continue
		}
		if b.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = b.NsPerOp
		}
		if b.AllocsPerOp != nil && (prev.AllocsPerOp == nil || *b.AllocsPerOp < *prev.AllocsPerOp) {
			prev.AllocsPerOp = b.AllocsPerOp
		}
		m[b.Name] = prev
	}
	return m
}

// compareReports diffs every pinned baseline benchmark against the new
// report, writes one verdict line per benchmark, and returns the number
// of regressions. A pinned benchmark is a regression when its ns/op grew
// by more than nsTol (fractional), its allocs/op grew beyond a 0.1%
// slack (exactly zero growth allowed below 1000 allocs/op; the slack
// only absorbs ±1-style sync.Pool timing jitter on large counts), or it
// is missing from the new report. Repeated runs of one benchmark
// (-count=N) are collapsed to their best result first. New benchmarks
// absent from the baseline are ignored — they have nothing to regress
// from.
func compareReports(old, cur *Report, pins []string, nsTol float64, w io.Writer) int {
	oldBest := bestByName(old.Benchmarks)
	curBest := bestByName(cur.Benchmarks)
	seen := make(map[string]bool, len(oldBest))
	failures := 0
	for _, entry := range old.Benchmarks {
		if seen[entry.Name] || !pinned(entry.Name, pins) {
			continue
		}
		seen[entry.Name] = true
		ob := oldBest[entry.Name]
		nb, ok := curBest[ob.Name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: missing from new report\n", ob.Name)
			failures++
			continue
		}
		bad := false
		if ob.NsPerOp > 0 && nb.NsPerOp > ob.NsPerOp*(1+nsTol) {
			fmt.Fprintf(w, "FAIL %s: ns/op %.0f -> %.0f (+%.1f%% > %.0f%% allowed)\n",
				ob.Name, ob.NsPerOp, nb.NsPerOp, 100*(nb.NsPerOp/ob.NsPerOp-1), 100*nsTol)
			bad = true
		}
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil && *nb.AllocsPerOp > *ob.AllocsPerOp*1.001 {
			fmt.Fprintf(w, "FAIL %s: allocs/op %.0f -> %.0f (growth fails)\n",
				ob.Name, *ob.AllocsPerOp, *nb.AllocsPerOp)
			bad = true
		}
		if bad {
			failures++
			continue
		}
		fmt.Fprintf(w, "ok   %s: ns/op %.0f -> %.0f\n", ob.Name, ob.NsPerOp, nb.NsPerOp)
	}
	return failures
}

// parse scans benchmark output from r, echoing every line to echo, and
// returns the structured report.
func parse(r io.Reader, echo io.Writer) (*Report, error) {
	report := &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			report.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	return report, sc.Err()
}

// parseBenchLine parses "BenchmarkName-8 N value unit [value unit]...".
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			val := v
			b.BytesPerOp = &val
		case "allocs/op":
			val := v
			b.AllocsPerOp = &val
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}
