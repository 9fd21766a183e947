package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"multibus/internal/topology"
	"multibus/internal/workload"
)

func contextTestConfig(t *testing.T, cycles int) Config {
	t.Helper()
	nw, err := topology.Full(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewUniform(8, 8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Topology: nw, Workload: gen, Cycles: cycles}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, contextTestConfig(t, 1000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestRunContextDeadlineMidRun(t *testing.T) {
	// A deadline already in the past must abort at the first context
	// check, long before the run's natural end.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cfg := contextTestConfig(t, 2_000_000)
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext past deadline = %v, want context.DeadlineExceeded", err)
	}
	// Generous bound: 2M cycles take seconds; aborting at the first
	// check takes far under one.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the context is not being checked", elapsed)
	}
}

func TestRunContextDeadlineInsideBatch(t *testing.T) {
	// Two batches of half a billion cycles each, with a one-cycle
	// warm-up: the deadline passes inside the first measured batch, and
	// the run must stop there rather than finish the batch.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cfg := contextTestConfig(t, 1_000_000_000)
	cfg.Batches = 2
	cfg.Warmup = 1
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext with 50ms deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation inside a batch took %v, want under 1s", elapsed)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := contextTestConfig(t, 2000)
	cfg.Seed = 7
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bandwidth != b.Bandwidth || a.Accepted != b.Accepted {
		t.Errorf("Run and RunContext disagree: %v/%v vs %v/%v",
			a.Bandwidth, a.Accepted, b.Bandwidth, b.Accepted)
	}
}
