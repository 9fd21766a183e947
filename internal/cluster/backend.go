package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"multibus/internal/compute"
	"multibus/internal/scenario"
)

// Options configures a cluster Backend.
type Options struct {
	// Manager is the membership manager routing reads its ring from
	// (NewManager; seeded from -peers or grown by -join). Required.
	Manager *Manager
	// Local is the fallback/owned-key backend (nil = compute.Local()).
	Local compute.Backend
}

// Backend is the routing compute.Backend: every evaluation is keyed by
// its canonical cache key and forwarded to the ring owner, where it
// joins the owner's singleflight — concurrent identical requests
// arriving anywhere in the cluster compute once, on one instance, and
// populate one cache. Any forwarding failure falls back to local
// compute (results are deterministic, so a fallback answer is
// byte-identical to the owner's). Every outcome is reported to the
// membership manager, the one judge of peer health: forwards that get
// no response suspect and then evict the peer exactly as failed probes
// do, and its keys move to a survivor.
//
// Routing reads the membership manager's current snapshot, so
// ownership follows evictions, joins, and leaves without any
// Backend-level locking (snapshots are immutable and published through
// an atomic pointer).
//
// Backend also implements compute.BatchSweeper: any instance serving a
// sweep partitions the grid by per-point key ownership under the
// snapshot current at submission, shards stream back concurrently, and
// points merge by grid index — deterministic order, byte-identical to a
// single-instance sweep. Indices a peer fails to deliver recompute on
// this instance.
type Backend struct {
	self    string
	manager *Manager
	local   compute.Backend
	client  *Client

	reg atomic.Pointer[registryHook]
}

// New builds the routing backend over opts.Manager.
func New(opts Options) (*Backend, error) {
	if opts.Manager == nil {
		return nil, errors.New("cluster: backend needs a membership manager")
	}
	local := opts.Local
	if local == nil {
		local = compute.Local()
	}
	return &Backend{
		self:    opts.Manager.Self(),
		manager: opts.Manager,
		local:   local,
		client:  opts.Manager.Client(),
	}, nil
}

// Ring exposes the current membership ring (tests and gauges read it).
func (b *Backend) Ring() *Ring { return b.manager.Snapshot().Ring }

// Manager exposes the backend's membership manager.
func (b *Backend) Manager() *Manager { return b.manager }

// route decides whether key's evaluation should be forwarded, returning
// the owning peer when so. Forwarded requests (the hop guard) and keys
// this instance owns evaluate locally.
func (b *Backend) route(ctx context.Context, key string) (string, bool) {
	if compute.Forwarded(ctx) {
		return "", false
	}
	owner := b.manager.Owner(key)
	return owner, owner != b.self
}

// settle reports a forward's outcome to the membership manager and the
// metrics, and reports whether the forwarded result is usable. Status
// errors are labeled with the peer's envelope code (or http_<status>)
// so dashboards can tell a shedding peer from a broken wire; other
// failures keep the plain "error" label.
func (b *Backend) settle(ctx context.Context, peer string, err error) bool {
	b.manager.report(ctx, peer, err)
	if err == nil {
		b.countPeer(peer, "ok")
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		b.countPeer(peer, se.Result())
	} else {
		b.countPeer(peer, "error")
	}
	return false
}

// Analyze implements compute.Backend.
func (b *Backend) Analyze(ctx context.Context, built *scenario.Built) (*compute.Analysis, error) {
	if peer, ok := b.route(ctx, built.AnalyzeKey()); ok {
		if res, err := b.client.Analyze(ctx, peer, built.Scenario); b.settle(ctx, peer, err) {
			return res, nil
		}
	}
	return b.local.Analyze(ctx, built)
}

// Simulate implements compute.Backend.
func (b *Backend) Simulate(ctx context.Context, built *scenario.Built) (*compute.SimResult, error) {
	if peer, ok := b.route(ctx, built.SimulateKey()); ok {
		if res, err := b.client.Simulate(ctx, peer, built.Scenario); b.settle(ctx, peer, err) {
			return res, nil
		}
	}
	return b.local.Simulate(ctx, built)
}

// SweepPoint implements compute.Backend by evaluating locally. Sweep
// points cross instances only as shards: SweepBatch forwards the
// peer-owned ones, the rest reach here through the sweep engine's local
// loop (SweepBatch.Local), and the one other caller — the
// /v1/cluster/sweep worker — runs under the hop guard, which always
// routes locally.
func (b *Backend) SweepPoint(ctx context.Context, jb compute.PointJob) (compute.Point, error) {
	return b.local.SweepPoint(ctx, jb)
}

// partition splits the grid by current ring ownership: remote shards
// per owning peer, plus the self-owned rest.
func (b *Backend) partition(batch compute.SweepBatch) (map[string][]int, []int) {
	ring := b.Ring()
	shards := make(map[string][]int)
	var local []int
	for i, jb := range batch.Jobs {
		if owner := ring.Owner(jb.Key()); owner != b.self {
			shards[owner] = append(shards[owner], i)
		} else {
			local = append(local, i)
		}
	}
	return shards, local
}

// shardChunk encodes the longest prefix of idxs that one shard request
// carries — at most compute.MaxShardPoints points and, past the first
// point, compute.MaxShardBytes of body — as a compute.ShardRequest,
// straight from per-spec encodings. It returns the body and the prefix
// length.
func shardChunk(batch compute.SweepBatch, idxs []int) ([]byte, int, error) {
	body := []byte(`{"points":[`)
	n := 0
	for ; n < len(idxs) && n < compute.MaxShardPoints; n++ {
		raw, err := json.Marshal(batch.Jobs[idxs[n]].Spec())
		if err != nil {
			return nil, 0, err
		}
		if n > 0 {
			if len(body)+1+len(raw)+len("]}") > compute.MaxShardBytes {
				break
			}
			body = append(body, ',')
		}
		body = append(body, raw...)
	}
	return append(body, "]}"...), n, nil
}

// fanOut streams every shard through its peer concurrently, in chunks
// shardChunk sizes, emitting delivered points through emit (global grid
// index), and returns the indices the peers failed to deliver —
// per-point errors, truncated streams, dead peers. Blocks until every
// shard settles.
func (b *Backend) fanOut(ctx context.Context, batch compute.SweepBatch, shards map[string][]int, emit func(int, compute.Point)) []int {
	var (
		mu     sync.Mutex
		failed []int
		wg     sync.WaitGroup
	)
	fail := func(idxs ...int) {
		mu.Lock()
		failed = append(failed, idxs...)
		mu.Unlock()
	}
	for peer, idxs := range shards {
		wg.Add(1)
		go func(peer string, idxs []int) {
			defer wg.Done()
			for len(idxs) > 0 {
				body, n, err := shardChunk(batch, idxs)
				if err != nil {
					// No request was sent; the local recompute reports the
					// failure natively.
					fail(idxs...)
					return
				}
				chunk := idxs[:n]
				idxs = idxs[n:]
				done := make([]bool, n)
				err = b.client.SweepShard(ctx, peer, body, func(rec compute.ShardRecord) {
					if rec.Index < 0 || rec.Index >= n || rec.Point == nil {
						return
					}
					done[rec.Index] = true
					emit(chunk[rec.Index], *rec.Point)
				})
				b.settle(ctx, peer, err)
				mu.Lock()
				for k, gi := range chunk {
					if !done[k] {
						failed = append(failed, gi)
					}
				}
				mu.Unlock()
				if unreachable(err) {
					// The peer (or the path to it) is gone; fail the rest of
					// its shard straight to local compute instead of
					// hammering a dead endpoint chunk by chunk.
					fail(idxs...)
					return
				}
			}
		}(peer, idxs)
	}
	wg.Wait()
	return failed
}

// SweepBatch implements compute.BatchSweeper. Any instance serving a
// sweep coordinates it (failover: there is no designated coordinator to
// lose): the grid is partitioned by per-point key ownership under the
// membership snapshot current at submission, and each remote shard
// streams back concurrently while this instance evaluates its own
// shard. Every index a peer failed to deliver — whether or not the ring
// moved meanwhile — then recomputes here. Local work, the own shard and
// every failed index, runs through batch.Local, the sweep engine's pool
// and memo layer. The merged result is complete and byte-identical to a
// single-instance sweep, and no grid index is ever emitted twice.
func (b *Backend) SweepBatch(ctx context.Context, batch compute.SweepBatch) error {
	if compute.Forwarded(ctx) {
		all := make([]int, len(batch.Jobs))
		for i := range all {
			all[i] = i
		}
		return batch.Local(ctx, all)
	}
	shards, localIdx := b.partition(batch)
	seen := make([]atomic.Bool, len(batch.Jobs))
	emit := func(global int, pt compute.Point) {
		// A duplicate or out-of-range index from a confused peer must
		// not double-emit a grid slot.
		if global < 0 || global >= len(batch.Jobs) || seen[global].Swap(true) {
			return
		}
		batch.Emit(global, pt)
	}
	// This instance's own shard evaluates while the remote shards
	// stream; its first error aborts the sweep exactly as a local run's
	// would.
	localCh := make(chan error, 1)
	go func() { localCh <- batch.Local(ctx, localIdx) }()
	failed := b.fanOut(ctx, batch, shards, emit)
	if localErr := <-localCh; localErr != nil {
		return localErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Deterministic evaluation makes the recomputed points
	// byte-identical to what the peer would have returned.
	return batch.Local(ctx, failed)
}
