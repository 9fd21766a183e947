package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime/pprof"
	"sync/atomic"
	"testing"
)

// TestParallelDeterminism checks the worker pool's core contract: the
// Result a parallel sweep returns is byte-identical — same order, same
// values, same skip list — to a sequential one, across all five schemes.
func TestParallelDeterminism(t *testing.T) {
	spec := Spec{
		Ns:           []int{8, 16},
		Bs:           []int{1, 2, 4, 8, 16},
		Rs:           []float64{0.5, 1.0},
		Schemes:      schemes(t, "full", "single", "partial", "kclasses", "crossbar"),
		Hierarchical: true,
	}
	spec.Workers = 1
	seq, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	par, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestParallelDeterminismWithSim repeats the cross-check with the
// Monte-Carlo simulator enabled on a subset: every point is seeded
// independently of worker scheduling, so simulated bandwidths and
// confidence intervals must also match exactly.
func TestParallelDeterminismWithSim(t *testing.T) {
	spec := Spec{
		Ns:           []int{8},
		Bs:           []int{2, 4, 8},
		Rs:           []float64{1.0},
		Schemes:      schemes(t, "full", "single", "partial", "kclasses", "crossbar"),
		Hierarchical: true,
		WithSim:      true,
		SimCycles:    2000,
		Seed:         7,
	}
	spec.Workers = 1
	seq, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	par, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel WithSim sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	simulated := 0
	for _, p := range par.Points {
		if p.Simulated {
			simulated++
		}
	}
	if simulated == 0 {
		t.Fatal("no simulated points in WithSim sweep")
	}
}

// TestForEachPoolProgressCounters: per-index counters show every index
// runs exactly once on success, and an error at index 3 on one worker
// stops the pool after it.
func TestForEachPoolProgressCounters(t *testing.T) {
	var calls [20]atomic.Int64
	err := ForEachPool(context.Background(), len(calls), PoolOptions{Workers: 4},
		func(ctx context.Context, i int) error {
			calls[i].Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times, want 1", i, n)
		}
	}

	boom := errors.New("boom")
	var ran atomic.Int64
	err = ForEachPool(context.Background(), 20, PoolOptions{Workers: 1},
		func(ctx context.Context, i int) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n != 4 {
		t.Errorf("ran %d indices before abort at index 3, want 4", n)
	}
}

// TestForEachPoolPprofLabel: worker goroutines carry the pool label
// while fn runs.
func TestForEachPoolPprofLabel(t *testing.T) {
	seen := make([]string, 2)
	err := ForEachPool(context.Background(), 2, PoolOptions{
		Workers: 1,
		Label:   "unit-test",
	}, func(ctx context.Context, i int) error {
		v, _ := pprof.Label(ctx, "pool")
		seen[i] = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != "unit-test" {
			t.Errorf("index %d ran without pool label (got %q)", i, v)
		}
	}
}

// TestWorkersDefault exercises the GOMAXPROCS default path (Workers: 0).
func TestWorkersDefault(t *testing.T) {
	res, err := Run(Spec{
		Ns:      []int{8},
		Bs:      []int{2, 4},
		Rs:      []float64{1.0},
		Schemes: schemes(t, "full"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
}
