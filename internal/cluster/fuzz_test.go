package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"multibus/internal/cluster"
	"multibus/internal/compute"
	"multibus/internal/scenario"
	"multibus/internal/sweep"
)

// Fixed peer names keep ring ownership identical on every run; the
// transport dials the per-input httptest listener behind them.
const (
	fuzzSelf = "http://self.test"
	fuzzPeer = "http://peer.test"
)

// fuzzGrid is the small sweep every input runs: 24 points, split
// between self and the peer by the two-member ring.
func fuzzGrid(t testing.TB) sweep.Spec {
	var schemes []scenario.Network
	for _, name := range []string{"full", "single"} {
		nw, err := scenario.SweepScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, nw)
	}
	return sweep.Spec{Ns: []int{4, 8}, Bs: []int{2, 4}, Rs: []float64{0.5, 0.75, 1}, Schemes: schemes, Workers: 1}
}

// gridKeys records the enumerated grid's per-point cache keys in grid
// order (a BatchSweeper sees the whole grid), then hands every index to
// the sweep's own local loop.
type gridKeys struct {
	compute.Backend
	keys []string
}

func (g *gridKeys) SweepBatch(ctx context.Context, batch compute.SweepBatch) error {
	all := make([]int, len(batch.Jobs))
	for i, jb := range batch.Jobs {
		g.keys = append(g.keys, jb.Key())
		all[i] = i
	}
	return batch.Local(ctx, all)
}

// decodeShard reads an NDJSON shard stream the way the peer client
// does: records in order until EOF or the first malformed one.
func decodeShard(body []byte) []compute.ShardRecord {
	var recs []compute.ShardRecord
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var rec compute.ShardRecord
		if err := dec.Decode(&rec); err != nil {
			return recs
		}
		recs = append(recs, rec)
	}
}

// FuzzSweepShardStream points a coordinator at a peer whose
// /v1/cluster/sweep answer is the fuzz bytes: truncated, garbled,
// duplicate, out-of-range, and error records included. Every run must
// finish without a panic, emit each grid index exactly once, and merge
// to the points sweep.Run computes on compute.Local() — except where the
// stream carries a well-formed point record, which is the owner's answer
// and lands as sent (first record per index wins; the coordinator cannot
// check a value without recomputing it). Undelivered indices recompute
// locally.
func FuzzSweepShardStream(f *testing.F) {
	spec := fuzzGrid(f)
	ref, err := sweep.Run(spec)
	if err != nil {
		f.Fatal(err)
	}
	rec := &gridKeys{Backend: compute.Local()}
	keyed := spec
	keyed.Backend = rec
	if _, err := sweep.Run(keyed); err != nil {
		f.Fatal(err)
	}
	mgr, err := cluster.NewManager(cluster.ManagerOptions{Self: fuzzSelf, Peers: []string{fuzzSelf, fuzzPeer}})
	if err != nil {
		f.Fatal(err)
	}
	// The honest shard: the peer-owned points in grid order, indexed
	// within the shard.
	var honest bytes.Buffer
	var shard []int
	for i, key := range rec.keys {
		if mgr.Owner(key) == fuzzPeer {
			shard = append(shard, i)
		}
	}
	if len(shard) < 2 || len(shard) == len(rec.keys) {
		f.Fatalf("peer owns %d of %d grid points; the fuzz grid needs a mixed split", len(shard), len(rec.keys))
	}
	enc := json.NewEncoder(&honest)
	for k, gi := range shard {
		if err := enc.Encode(compute.ShardRecord{Index: k, Point: &ref.Points[gi]}); err != nil {
			f.Fatal(err)
		}
	}
	valid := honest.Bytes()
	first, _, _ := bytes.Cut(valid, []byte("\n"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, first...), "\n"+string(valid)...))
	f.Add([]byte(`{"i":-1,"point":{"bandwidth":1}}` + "\n" + `{"i":999,"point":{"bandwidth":1}}` + "\n"))
	f.Add([]byte(`{"i":0,"error":{"code":"internal_error","message":"boom","retryable":true}}` + "\n" + `{"i":1,"point":null}` + "\n"))
	f.Add([]byte(`{"i":0,"point":{"bandwidth":9}}` + "\n" + `{"i":0,"point":{"bandwidth":7}}` + "\n" + `not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			mu    sync.Mutex
			specs []compute.PointSpec
		)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Points []compute.PointSpec `json:"points"`
			}
			if r.URL.Path != "/v1/cluster/sweep" || json.NewDecoder(r.Body).Decode(&req) != nil {
				http.Error(w, "unexpected request", http.StatusBadRequest)
				return
			}
			mu.Lock()
			specs = append(specs, req.Points...)
			mu.Unlock()
			w.Header().Set("Content-Type", "application/x-ndjson")
			_, _ = w.Write(body)
		}))
		defer srv.Close()
		tr := http.DefaultTransport.(*http.Transport).Clone()
		var dialer net.Dialer
		tr.DialContext = func(ctx context.Context, network, _ string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, srv.Listener.Addr().String())
		}
		defer tr.CloseIdleConnections()
		// A fresh manager and backend per input, so no membership state
		// leaks across inputs.
		m, err := cluster.NewManager(cluster.ManagerOptions{
			Self: fuzzSelf, Peers: []string{fuzzSelf, fuzzPeer}, HTTP: &http.Client{Transport: tr},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := cluster.New(cluster.Options{Manager: m})
		if err != nil {
			t.Fatal(err)
		}
		emitted := make([]int, len(rec.keys))
		run := spec
		run.Backend = b
		run.OnPoint = func(i int, _ compute.Point) {
			mu.Lock()
			defer mu.Unlock()
			if i < 0 || i >= len(emitted) {
				t.Errorf("grid index %d emitted, grid has %d points", i, len(emitted))
				return
			}
			emitted[i]++
		}
		got, err := sweep.Run(run)
		if err != nil {
			t.Fatalf("sweep failed: %v", err)
		}
		for i, n := range emitted {
			if n != 1 {
				t.Errorf("grid index %d emitted %d times", i, n)
			}
		}
		if len(specs) != len(shard) {
			t.Fatalf("peer received %d points, want its %d-point shard", len(specs), len(shard))
		}
		// The first well-formed point record per in-range shard index is
		// the owner's answer for that key.
		owned := make(map[string]compute.Point)
		for _, r := range decodeShard(body) {
			if r.Index < 0 || r.Index >= len(specs) || r.Point == nil {
				continue
			}
			built, err := specs[r.Index].Scenario.Build()
			if err != nil {
				t.Fatal(err)
			}
			key := built.SweepPointKey(specs[r.Index].Axis, specs[r.Index].WithSim)
			if _, dup := owned[key]; !dup {
				owned[key] = *r.Point
			}
		}
		want := append([]compute.Point(nil), ref.Points...)
		for i, key := range rec.keys {
			if pt, ok := owned[key]; ok {
				want[i] = pt
			}
		}
		gotJSON, err := json.Marshal(got.Points)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("merged points differ:\ngot:  %s\nwant: %s", gotJSON, wantJSON)
		}
	})
}
