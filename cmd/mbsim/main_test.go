package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multibus/internal/cliutil"
	"multibus/internal/compute"
	"multibus/internal/scenario"
	"multibus/internal/testutil"
)

func baseOptions() options {
	return options{
		spec: &cliutil.ScenarioFlags{
			Scheme: "full", N: 8, B: 4, Workload: "hier", R: 1.0,
		},
		cycles: 3000, seed: 1, service: 1, mode: "drop",
	}
}

func TestRunDropWithAnalytic(t *testing.T) {
	out := testutil.CaptureStdout(t, func() error { return run(baseOptions()) })
	for _, frag := range []string{"bandwidth:", "acceptance:", "analytic:", "blocked:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunResubmitWithFixedPoint(t *testing.T) {
	o := baseOptions()
	o.mode = "resubmit"
	out := testutil.CaptureStdout(t, func() error { return run(o) })
	for _, frag := range []string{"mean wait:", "fixed point:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunExactAndVerbose(t *testing.T) {
	o := baseOptions()
	o.withExact = true
	o.verbose = true
	out := testutil.CaptureStdout(t, func() error { return run(o) })
	for _, frag := range []string{"exact:", "per-bus service rates", "per-processor acceptance"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	trace := "n=8 m=8\ncycle\n0 0\n1 1\ncycle\n2 2\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOptions()
	o.tracePath = path
	o.cycles = 100
	out := testutil.CaptureStdout(t, func() error { return run(o) })
	if !strings.Contains(out, "trace:"+path) {
		t.Errorf("trace label missing:\n%s", out)
	}
	// Dimension mismatch rejected.
	o.spec.N = 4
	if err := run(o); err == nil {
		t.Error("trace/network mismatch should error")
	}
	// Missing file rejected.
	o = baseOptions()
	o.tracePath = filepath.Join(dir, "missing.txt")
	if err := run(o); err == nil {
		t.Error("missing trace should error")
	}
}

func TestRunErrors(t *testing.T) {
	o := baseOptions()
	o.mode = "teleport"
	if err := run(o); err == nil {
		t.Error("unknown mode should error")
	}
	o = baseOptions()
	o.spec.Scheme = "mesh"
	if err := run(o); err == nil {
		t.Error("unknown scheme should error")
	}
	o = baseOptions()
	o.spec.Workload = "zipf"
	if err := run(o); err == nil {
		t.Error("unknown workload should error")
	}
	// The crossbar reference curve is not a simulatable network.
	o = baseOptions()
	o.spec.Scheme = "crossbar"
	if err := run(o); err == nil {
		t.Error("crossbar should be rejected for simulation")
	}
}

func TestRunCustomWiring(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wiring.txt")
	wiring := "n=4 b=3 m=4\n1 1 0 0\n0 1 1 0\n0 0 1 1\n"
	if err := os.WriteFile(path, []byte(wiring), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOptions()
	o.wiringPath = path
	o.spec.Workload = "unif"
	o.cycles = 500
	out := testutil.CaptureStdout(t, func() error { return run(o) })
	if !strings.Contains(out, "4×4×3 custom") {
		t.Errorf("custom wiring not loaded:\n%s", out)
	}
	o.wiringPath = filepath.Join(dir, "absent.txt")
	if err := run(o); err == nil {
		t.Error("missing wiring file should error")
	}
}

// TestRunScenarioFile: -scenario drives the whole run, including the
// sim block, through the canonical layer.
func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	body := `{
		"network": {"scheme": "partial", "n": 8, "b": 4, "groups": 4},
		"model": {"kind": "unif"},
		"r": 0.75,
		"sim": {"cycles": 2000, "seed": 7, "resubmit": true}
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOptions()
	o.spec = &cliutil.ScenarioFlags{File: path}
	out := testutil.CaptureStdout(t, func() error { return run(o) })
	for _, frag := range []string{"8×8×4 partial bus network (g=4)", "2000 cycles", "seed 7", "mean wait:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestScenarioExamplesMatchService: every example scenario with a sim
// block prints, through mbsim's default flags, the bandwidth and CI the
// serving stack's compute.Local().Simulate returns for the same file.
func TestScenarioExamplesMatchService(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, path := range paths {
		sc, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Sim == nil {
			continue
		}
		built, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want, err := compute.Local().Simulate(context.Background(), built)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		o := options{spec: &cliutil.ScenarioFlags{File: path}, cycles: 50000, seed: 1, service: 1, mode: "drop"}
		out := testutil.CaptureStdout(t, func() error { return run(o) })
		line := fmt.Sprintf("bandwidth:  %.4f ± %.4f requests/cycle", want.Bandwidth, want.BandwidthCI95)
		if !strings.Contains(out, line) {
			t.Errorf("%s: mbsim printed\n%s\nwant %q", path, out, line)
		}
		ran++
	}
	if ran < 2 {
		t.Errorf("only %d example scenarios carry a sim block", ran)
	}
}
