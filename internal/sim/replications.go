package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"multibus/internal/numerics"
)

// ReplicatedResult aggregates independent simulation replications run
// with distinct seeds.
type ReplicatedResult struct {
	Replications int
	// BandwidthMean is the across-replication mean bandwidth, and
	// BandwidthCI95 its 95% confidence half-width (Student t over
	// replications — independent runs, so no batch-means assumptions).
	BandwidthMean float64
	BandwidthCI95 float64
	// AcceptanceMean is the mean acceptance probability.
	AcceptanceMean float64
	// MeanWaitMean is the mean of the per-replication mean waits.
	MeanWaitMean float64
	// PerReplication holds each replication's full result, ordered by
	// replication index (seed base+i).
	PerReplication []*Result
}

// RunReplications executes reps independent copies of cfg, seeded
// base, base+1, …, in parallel across available CPUs, and aggregates
// them. Each replication gets its own arbiter state, so cfg.Assigner
// must be nil (each run builds its assigner from the topology).
func RunReplications(cfg Config, reps int) (*ReplicatedResult, error) {
	if reps < 2 {
		return nil, fmt.Errorf("%w: reps=%d (need ≥ 2)", ErrBadConfig, reps)
	}
	if cfg.Assigner != nil {
		return nil, fmt.Errorf("%w: RunReplications builds per-replication assigners; leave Assigner nil", ErrBadConfig)
	}
	// Replication i runs with seed base+i; the PCG seed-derivation rule
	// (see newRNG) guarantees consecutive seeds yield independent
	// streams.
	baseSeed := EffectiveSeed(cfg.Seed)
	results := make([]*Result, reps)
	errs := make([]error, reps)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < reps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cfg
			c.Seed = baseSeed + int64(i)
			// Each replication gets an independent workload (trace
			// cursors); Run builds its own arbiters.
			c.Workload = cfg.Workload.Clone()
			results[i], errs[i] = Run(c)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	agg := &ReplicatedResult{Replications: reps, PerReplication: results}
	bws := make([]float64, reps)
	var accept, wait numerics.KahanSum
	for i, r := range results {
		bws[i] = r.Bandwidth
		accept.Add(r.AcceptanceProbability)
		wait.Add(r.MeanWaitCycles)
	}
	agg.BandwidthMean = numerics.Mean(bws)
	sd := math.Sqrt(numerics.Variance(bws))
	agg.BandwidthCI95 = tCritical95(reps-1) * sd / math.Sqrt(float64(reps))
	agg.AcceptanceMean = accept.Value() / float64(reps)
	agg.MeanWaitMean = wait.Value() / float64(reps)
	return agg, nil
}
