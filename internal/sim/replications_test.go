package sim

import (
	"math"
	"testing"

	"multibus/internal/arbiter"
	"multibus/internal/topology"
	"multibus/internal/workload"
)

func TestRunReplicationsAggregates(t *testing.T) {
	nw, err := topology.Full(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topology: nw,
		Workload: paperWorkload(t, 8, 1.0),
		Cycles:   5000,
		Seed:     100,
	}
	agg, err := RunReplications(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Replications != 8 || len(agg.PerReplication) != 8 {
		t.Fatalf("replications = %d", agg.Replications)
	}
	// Mean of per-replication bandwidths matches the aggregate.
	sum := 0.0
	for _, r := range agg.PerReplication {
		sum += r.Bandwidth
	}
	if math.Abs(agg.BandwidthMean-sum/8) > 1e-12 {
		t.Errorf("mean %.6f vs recomputed %.6f", agg.BandwidthMean, sum/8)
	}
	if agg.BandwidthCI95 <= 0 {
		t.Error("CI must be positive")
	}
	// Replications are genuinely independent: not all identical.
	first := agg.PerReplication[0].Bandwidth
	allSame := true
	for _, r := range agg.PerReplication[1:] {
		if r.Bandwidth != first {
			allSame = false
		}
	}
	if allSame {
		t.Error("all replications identical — seeds not varied")
	}
	// Deterministic overall: same call twice gives the same aggregate.
	agg2, err := RunReplications(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if agg2.BandwidthMean != agg.BandwidthMean {
		t.Errorf("replicated runs not reproducible: %v vs %v", agg.BandwidthMean, agg2.BandwidthMean)
	}
}

func TestRunReplicationsValidation(t *testing.T) {
	nw, err := topology.Full(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewUniform(4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: nw, Workload: gen, Cycles: 100}
	if _, err := RunReplications(cfg, 1); err == nil {
		t.Error("reps < 2 should error")
	}
	// Pre-set assigner rejected (state would be shared across goroutines).
	withAssigner := cfg
	var errAssigner error
	withAssigner.Assigner, errAssigner = arbiter.ForTopology(nw)
	if errAssigner != nil {
		t.Fatal(errAssigner)
	}
	if _, err := RunReplications(withAssigner, 2); err == nil {
		t.Error("explicit assigner should be rejected")
	}
	// Bad inner config propagates.
	bad := cfg
	bad.Cycles = -1
	if _, err := RunReplications(bad, 2); err == nil {
		t.Error("bad inner config should error")
	}
}

func TestRunReplicationsTraceWorkload(t *testing.T) {
	// Trace workloads are stateful; replications must each get a rewound
	// clone and produce identical results (the trace is deterministic).
	nw, err := topology.Full(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewTrace(2, 2, [][]workload.Request{
		{{Processor: 0, Module: 0}, {Processor: 1, Module: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RunReplications(Config{
		Topology: nw, Workload: gen, Cycles: 50, Warmup: 0, Batches: 2,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range agg.PerReplication {
		if r.Bandwidth != 1.0 {
			t.Errorf("replication %d bandwidth %.4f, want 1.0", i, r.Bandwidth)
		}
	}
}
