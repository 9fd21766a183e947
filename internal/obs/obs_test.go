package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "requests", L("route", "analyze"))
	b := r.Counter("requests_total", "requests", L("route", "analyze"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("requests_total", "requests", L("route", "simulate"))
	if a == other {
		t.Fatal("distinct labels share a counter")
	}
	a.Inc()
	a.Add(2)
	if got := b.Value(); got != 3 {
		t.Errorf("Value = %d, want 3", got)
	}
	if got := other.Value(); got != 0 {
		t.Errorf("sibling series value = %d, want 0", got)
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "", L("b", "2"), L("a", "1"))
	b := r.Counter("c", "", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter name as gauge did not panic")
		}
	}()
	r.GaugeFunc("m", "", func() float64 { return 0 })
}

// TestGaugeAndGaugeFunc: a GaugeFunc series exposes as a gauge read at
// scrape time, and re-registering the series replaces its function.
func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.GaugeFunc("fn", "a live gauge", func() float64 { return v })
	r.GaugeFunc("temp", "a replaced gauge", func() float64 { return 1 })
	r.GaugeFunc("temp", "a replaced gauge", func() float64 { return 2.5 })
	v = 8
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE temp gauge\n", "temp 2.5\n",
		"# TYPE fn gauge\n", "fn 8\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "total requests", L("route", "analyze")).Add(4)
	r.Counter("req_total", "total requests", L("route", "batch")).Add(1)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, L("route", "analyze"))
	// Exactly representable observations so the golden _sum is stable.
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{route="analyze",le="0.1"} 1
lat_seconds_bucket{route="analyze",le="1"} 2
lat_seconds_bucket{route="analyze",le="+Inf"} 3
lat_seconds_sum{route="analyze"} 5.5625
lat_seconds_count{route="analyze"} 3
# HELP req_total total requests
# TYPE req_total counter
req_total{route="analyze"} 4
req_total{route="batch"} 1
`
	if out != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", out, want)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", L("path", `a\b"c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `c{path="a\\b\"c\n"} 1` + "\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("escaped series missing; got:\n%s", sb.String())
	}
}

func TestConcurrentCounterUse(t *testing.T) {
	// Run under -race: concurrent get-or-create and increments across
	// goroutines must be safe.
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("hits", "", L("g", "shared")).Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits", "", L("g", "shared")).Value(); got != 8*500 {
		t.Errorf("Value = %d, want %d", got, 8*500)
	}
}
