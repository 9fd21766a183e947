package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multibus/internal/testutil"
)

func defaults() options {
	return options{
		n:        16,
		r:        1.0,
		workload: "hier",
		q:        0.5,
		schemes:  "full,single,partial-g2,kclasses,crossbar",
		cycles:   20000,
		seed:     1,
	}
}

func TestRunChartAndTable(t *testing.T) {
	out := testutil.CaptureStdout(t, func() error {
		return run(defaults())
	})
	for _, frag := range []string{
		"Memory bandwidth vs number of buses", "legend:", "crossbar",
		"scheme", "model", "analytic",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunWithSim(t *testing.T) {
	o := defaults()
	o.n = 8
	o.workload = "unif"
	o.withSim = true
	o.cycles = 2000
	o.seed = 3
	out := testutil.CaptureStdout(t, func() error {
		return run(o)
	})
	if !strings.Contains(out, "simulated") || !strings.Contains(out, "Δ%") {
		t.Errorf("sim columns missing:\n%s", out)
	}
}

func TestRunCSV(t *testing.T) {
	o := defaults()
	o.n = 8
	o.asCSV = true
	out := testutil.CaptureStdout(t, func() error {
		return run(o)
	})
	if !strings.HasPrefix(out, "scheme,model,n,b,r,x,analytic") {
		t.Errorf("csv header wrong: %q", out[:40])
	}
	if !strings.Contains(out, "full,hier,8,") {
		t.Errorf("csv rows missing:\n%s", out)
	}
}

func TestRunDasBhuyanAndClassSizes(t *testing.T) {
	o := defaults()
	o.schemes = "full"
	o.workload = "dasbhuyan"
	o.q = 0.7
	o.classSizes = "2,6,8"
	o.asCSV = true
	out := testutil.CaptureStdout(t, func() error {
		return run(o)
	})
	if !strings.Contains(out, "kclass[2,6,8],dasbhuyan-q0.7,16,") {
		t.Errorf("explicit-class axis missing:\n%s", out)
	}
}

// TestRunReportsSkipped: infeasible grid points are surfaced, not
// silently dropped.
func TestRunReportsSkipped(t *testing.T) {
	o := defaults()
	o.n = 8
	o.schemes = "full,partial-g2" // partial-g2 cannot wire B=1
	out := testutil.CaptureStdout(t, func() error {
		return run(o)
	})
	if !strings.Contains(out, "skipped 1 infeasible") || !strings.Contains(out, "groups") {
		t.Errorf("skip summary missing:\n%s", out)
	}
}

func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	body := `{"network":{"scheme":"kclass","n":16,"b":4,"classSizes":[2,6,8]},"model":{"kind":"unif"},"r":0.5}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	o := defaults()
	o.scenarioFile = path
	o.asCSV = true
	out := testutil.CaptureStdout(t, func() error {
		return run(o)
	})
	if !strings.Contains(out, "kclass[2,6,8],uniform,16,") {
		t.Errorf("scenario-file sweep rows missing:\n%s", out)
	}
	if !strings.Contains(out, ",0.5,") {
		t.Errorf("file rate not used:\n%s", out)
	}
}

// TestRunScenarioFileRefusesNonSweepKnobs: a sweep point keys and runs
// with cycles and seed only, so a scenario file setting any other sim
// knob is refused with an error naming it rather than swept without it.
func TestRunScenarioFileRefusesNonSweepKnobs(t *testing.T) {
	dir := t.TempDir()
	for _, knob := range []string{`"warmup":100`, `"batches":10`, `"serviceCycles":2`, `"resubmit":true`, `"roundRobin":true`} {
		name := strings.Split(strings.Trim(knob, `"`), `"`)[0]
		path := filepath.Join(dir, name+".json")
		body := `{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"unif"},"r":0.5,"sim":{"cycles":500,` + knob + `}}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		o := defaults()
		o.scenarioFile = path
		o.withSim = true
		if err := run(o); err == nil || !strings.Contains(err.Error(), "sim."+name) {
			t.Errorf("sweep of a file setting %s: err = %v, want one naming sim.%s", knob, err, name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	o := defaults()
	o.workload = "zipf"
	if err := run(o); err == nil {
		t.Error("unknown workload should error")
	}
	o = defaults()
	o.schemes = "mesh"
	if err := run(o); err == nil {
		t.Error("unknown scheme should error")
	}
}
