package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// the command prints in step: -trace 0 prints exactly the end-to-end
// list and -trace 1 exactly the per-layer list, with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, command knows %v", names, workloadNames)
	}
	for i := range names {
		if i < len(workloadNames) && names[i] != workloadNames[i] {
			t.Errorf("BENCHMARK.json workloads %v, command knows %v", names, workloadNames)
		}
	}

	t0 := time.Now()
	lat := make([]time.Duration, 2000)
	calls := make([]call, len(lat))
	ok := make([]bool, len(lat))
	for i := range calls {
		calls[i] = call{index: i, start: time.Duration(i) * time.Millisecond, lat: time.Millisecond, status: 200}
		ok[i] = true
	}
	m := &measurement{
		urls:   []string{"http://127.0.0.1:1"},
		setups: []time.Duration{time.Second},
		window: &phase{calls: calls, began: t0, elapsed: 2 * time.Second},
		ticks:  []cpuTick{{at: t0}, {at: t0.Add(time.Second), cpu: time.Second}, {at: t0.Add(2 * time.Second), cpu: 2 * time.Second}},
		before: [][]sample{nil},
		after:  [][]sample{nil},
	}
	v := &verdict{attempted: len(calls), ok: ok}
	e2e := endToEnd(m, v)
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		t.Helper()
		for _, w := range want {
			g, found := got[w.Name]
			if !found {
				t.Errorf("%s metric %s is listed but not printed", kind, w.Name)
			} else if g.Unit != w.Unit {
				t.Errorf("%s metric %s: printed unit %q, listed %q", kind, w.Name, g.Unit, w.Unit)
			}
			delete(got, w.Name)
		}
		var extra []string
		for k := range got {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics printed but not listed: %v", kind, extra)
		}
	}
	check("end-to-end", spec.EndToEnd, e2e.metrics)
	check("per-layer", spec.PerLayer, perLayer(m, v, e2e, &traceReport{}))
}
