package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"multibus/internal/compute"
	"multibus/internal/sweep"
)

// POST /v1/cluster/sweep is the peer-to-peer work surface of cluster
// mode (DESIGN.md §14): a coordinator partitions a sweep grid by key
// ownership and ships each peer its shard as a list of fully-specified
// points. The endpoint is registered unconditionally — any instance can
// serve as a worker — and the coordinator's client always sends
// X-Mb-Forwarded, so the instrument middleware marks the context and a
// routing backend evaluates the shard locally (one hop, never a loop).
//
// The response streams NDJSON, one compute.ShardRecord per point in
// completion order: {"i":N,"point":{...}} on success,
// {"i":N,"error":{...}} on a per-point failure. Indices refer to the
// request's points array; the coordinator maps them back to global grid
// indices, which is how the merged sweep stays in deterministic grid
// order regardless of peer completion interleaving. Per-point errors never abort the shard —
// the coordinator recomputes failed indices locally.

// handleClusterSweep serves POST /v1/cluster/sweep.
func (s *Server) handleClusterSweep(w http.ResponseWriter, r *http.Request) {
	var req compute.ShardRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeClassified(w, fmt.Errorf("%w: points list is empty", errBadRequest))
		return
	}
	if len(req.Points) > compute.MaxShardPoints {
		writeClassified(w, fmt.Errorf("%w: %d points exceed the %d-point shard limit",
			errBadRequest, len(req.Points), compute.MaxShardPoints))
		return
	}
	// Build every point up front: invalid scenarios become per-point
	// error records, which the coordinator fails over locally where they
	// classify identically.
	jobs := make([]compute.PointJob, len(req.Points))
	buildErrs := make([]error, len(req.Points))
	weight := int64(1) // the costliest point's, which sizes the pool
	for i, ps := range req.Points {
		built, err := ps.Scenario.Build()
		if err == nil && ps.WithSim {
			err = checkBuiltSimWork(built)
		}
		if err != nil {
			buildErrs[i] = err
			continue
		}
		jobs[i] = compute.PointJob{Built: built, Axis: ps.Axis, Model: ps.Model, WithSim: ps.WithSim}
		weight = max(weight, pointWeight(jobs[i]))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(rec compute.ShardRecord) {
		mu.Lock()
		defer mu.Unlock()
		// A failed write means the coordinator hung up; the context
		// cancellation will stop the pool.
		_ = enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Each point is admitted on its own cache miss, on the sweep route: a
	// worker saturated by local traffic sheds single points as overloaded
	// records, which the coordinator recomputes locally like any failure.
	// The pool is sized like a sweep's (see sweepSpec), so the shard never
	// sheds its own points.
	// The pool only stops early when the request context ends, and the
	// truncated stream is then the error signal the coordinator acts on.
	points := s.points("sweep")
	_ = sweep.ForEachPool(r.Context(), len(req.Points), sweep.PoolOptions{
		Workers: s.adm.poolSize(weight),
		Label:   "cluster sweep",
	}, func(ctx context.Context, i int) error {
		err := buildErrs[i]
		if err == nil {
			var pt compute.Point
			if pt, err = points.SweepPoint(ctx, jobs[i]); err == nil {
				emit(compute.ShardRecord{Index: i, Point: &pt})
				return nil
			}
		}
		// apiError is a plain data struct; marshaling cannot fail.
		raw, _ := json.Marshal(newAPIError(err))
		emit(compute.ShardRecord{Index: i, Error: raw})
		return nil
	})
}
