// Package obs is the observability layer of the serving stack:
// per-instance metric registries — counters, function gauges, and
// bounded-bucket latency histograms — with Prometheus text exposition (see
// prometheus.go) and quantile snapshots (see histogram.go).
//
// A Registry belongs to one component instance (one service.Server),
// never to the process: two Servers in one process — the
// daemon plus a test fixture, or two test servers side by side — must
// report independent numbers. That is the correctness lesson of the
// old expvar layer, whose sync.Once published the *first* Server's
// cache stats process-wide forever; see DESIGN.md §10.
//
// Metrics are identified by a family name plus an ordered set of
// labels. The getters Counter and Histogram are get-or-create: the
// first call for a (name, labels) pair allocates the series, later
// calls return the same instance, so hot paths can either cache the
// pointer or re-look it up. Registering one family name with
// two different metric types (or two different help strings or bucket
// layouts) is a programming error and panics.
//
// The metric vocabulary is deliberately shared with the benchmark
// pipeline: histogram snapshots expose the same count/sum/bucket shape
// that BENCH_*.json records, so a dashboard reading /metrics and a perf
// PR reading the bench file talk about latency in the same terms.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "route", Value: "analyze"}.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing int64 metric. Safe for
// concurrent use; the zero value is usable but a registry-owned
// instance (Registry.Counter) is what exposition sees.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (delta must be ≥ 0).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// metric type tags for conflict detection and TYPE exposition lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one (name, labels) time series of any metric type; exactly
// one of the value fields is set.
type series struct {
	labels  []Label
	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string
	bounds []float64          // histogram families only
	series map[string]*series // label signature → series
}

// Registry is a per-instance collection of metric families. Build one
// with NewRegistry; the zero value is not usable.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter series for (name, labels), creating it on
// first use. It panics if name is already registered as another type.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, typeCounter, nil, labels).counter
}

// GaugeFunc registers a gauge series whose value is read from fn at
// exposition time — the natural fit for counters owned by another
// component (cache.Stats) that obs should report but not duplicate.
// Re-registering the same series replaces its function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, typeGauge, nil, labels)
	r.mu.Lock()
	s.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram series for (name, labels), creating
// it on first use. bounds are the finite bucket upper bounds in
// strictly increasing order (an implicit +Inf bucket is always added);
// nil means DefLatencyBuckets. Every series of one family shares one
// bucket layout; differing bounds panic.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	validateBounds(name, bounds)
	return r.lookup(name, help, typeHistogram, bounds, labels).hist
}

// lookup finds or creates the series — instantiating its instrument
// under the registry lock, so concurrent get-or-create calls for one
// series observe exactly one instance — and enforces family
// consistency.
func (r *Registry) lookup(name, help, typ string, bounds []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			typ:    typ,
			bounds: append([]float64(nil), bounds...),
			series: make(map[string]*series),
		}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if typ == typeHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	sig := signature(labels)
	s, ok := f.series[sig]
	if !ok {
		ordered := append([]Label(nil), labels...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].Key < ordered[j].Key })
		s = &series{labels: ordered}
		switch typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeHistogram:
			s.hist = newHistogram(f.bounds)
		}
		f.series[sig] = s
	}
	return s
}

// signature renders labels to the canonical `k1="v1",k2="v2"` form
// (sorted by key) that identifies a series within its family.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ordered := append([]Label(nil), labels...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Key < ordered[j].Key })
	var b strings.Builder
	for i, l := range ordered {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// format: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
