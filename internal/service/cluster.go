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
// the coordinator retries failed indices locally.

// maxClusterPoints bounds one shard request, mirroring maxBatchItems'
// role for /v1/batch; coordinators chunk larger shards.
const maxClusterPoints = 4096

// handleClusterSweep serves POST /v1/cluster/sweep.
func (s *Server) handleClusterSweep(w http.ResponseWriter, r *http.Request) {
	var req compute.ShardRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeClassified(w, fmt.Errorf("%w: points list is empty", errBadRequest))
		return
	}
	if len(req.Points) > maxClusterPoints {
		writeClassified(w, fmt.Errorf("%w: %d points exceed the %d-point shard limit",
			errBadRequest, len(req.Points), maxClusterPoints))
		return
	}
	// Build every point up front: invalid scenarios become per-point
	// error records (the coordinator fails them over locally where they
	// classify identically), and the valid remainder prices the shard's
	// single weighted admission exactly like the same points inside a
	// local sweep grid.
	jobs := make([]compute.PointJob, len(req.Points))
	buildErrs := make([]error, len(req.Points))
	var weight int64
	analytic := int64(0)
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
		if ps.WithSim && !built.Crossbar {
			weight += simulateWeight(built)
		} else {
			analytic++
		}
	}
	weight += ceilDiv(analytic, analyticPointsPerUnit)
	if weight < 1 {
		weight = 1
	}
	// One gate for the whole shard, on the sweep route: shard work is
	// sweep work, and a worker saturated by local traffic sheds the
	// coordinator with the same 429 envelope as any client.
	_, err := s.gate(r.Context(), "sweep", weight, func(ctx context.Context) (any, error) {
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
		return nil, sweep.ForEachPool(ctx, len(req.Points), sweep.PoolOptions{
			Label: "cluster sweep",
		}, func(ctx context.Context, i int) error {
			err := buildErrs[i]
			if err == nil {
				var pt compute.Point
				if pt, err = compute.MemoPoint(ctx, s.cache, s.backend, jobs[i]); err == nil {
					emit(compute.ShardRecord{Index: i, Point: &pt})
					return nil
				}
			}
			// apiError is a plain data struct; marshaling cannot fail.
			raw, _ := json.Marshal(newAPIError(err))
			emit(compute.ShardRecord{Index: i, Error: raw})
			return nil
		})
	})
	if err != nil {
		// A gate refusal (shed, deadline) happens before the header is
		// written and classifies normally; a mid-stream pool abort cannot
		// be re-enveloped once NDJSON bytes are out, so the truncated
		// stream itself is the error signal the coordinator acts on.
		if rec, ok := w.(*statusRecorder); !ok || !rec.wroteHeader {
			writeClassified(w, err)
		}
	}
}
