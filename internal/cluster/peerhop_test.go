package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"multibus/internal/cluster"
	"multibus/internal/compute"
	"multibus/internal/scenario"
	"multibus/internal/service"
)

// TestForwardToRefusedPeerDialsOnce pins the one-attempt peer hop: a
// forward to a peer whose port refuses connections dials it exactly
// once and answers from local compute, byte-identical to compute.Local.
// The peer stays in the ring throughout (three failures evict nobody),
// so every forward really goes to it.
func TestForwardToRefusedPeerDialsOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close() // the port now refuses connections

	var dials atomic.Int64
	var dialer net.Dialer
	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	const self = "http://self.test"
	mgr, err := cluster.NewManager(cluster.ManagerOptions{Self: self, Peers: []string{self, dead}, HTTP: hc})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.New(cluster.Options{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	forwards := 0
	for i := 1; i < 1000 && forwards < 3; i++ {
		built, err := scenario.Scenario{
			Network: scenario.Network{Scheme: scenario.SchemeFull, N: 16, B: 8},
			Model:   scenario.Model{Kind: scenario.ModelHier},
			R:       float64(i) / 1000,
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		if mgr.Owner(built.AnalyzeKey()) != dead {
			continue
		}
		forwards++
		before := dials.Load()
		got, err := b.Analyze(ctx, built)
		if err != nil {
			t.Fatalf("forward %d: %v", forwards, err)
		}
		if n := dials.Load() - before; n != 1 {
			t.Errorf("forward %d dialed the refused peer %d times, want 1", forwards, n)
		}
		want, err := compute.Local().Analyze(ctx, built)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("forward %d answer differs from local compute:\n%s\n%s", forwards, gotJSON, wantJSON)
		}
	}
	if forwards < 3 {
		t.Fatalf("key sampling found %d keys owned by the refused peer, want 3", forwards)
	}
	if st := mgr.MemberStates()[dead]; st == cluster.StateEvicted {
		t.Errorf("refused peer evicted after %d forwards", forwards)
	}
}

// TestShardChunksFitPeerBodyLimit sweeps a grid whose points encode to
// over 550 B each (an explicit kclass template with 64 class sizes,
// repeated in the axis name) across two instances. Chunking by point
// count alone puts over 1 MiB in one shard request, which the worker
// refuses with 413; chunks bounded by compute.MaxShardBytes must all
// come back ok.
func TestShardChunksFitPeerBodyLimit(t *testing.T) {
	if compute.MaxShardBytes >= service.DefaultMaxBodyBytes {
		t.Fatalf("MaxShardBytes = %d, not under the default body limit %d",
			compute.MaxShardBytes, service.DefaultMaxBodyBytes)
	}
	const rates = 8192
	sizes := make([]string, 64)
	for i := range sizes {
		sizes[i] = []string{"10", "22"}[i%2]
	}
	rs := make([]string, rates)
	for i := range rs {
		rs[i] = fmt.Sprint(float64(i+1) / rates)
	}
	body := `{"ns":[256],"bs":[64],"rs":[` + strings.Join(rs, ",") +
		`],"networks":[{"scheme":"kclass","classSizes":[` + strings.Join(sizes, ",") + `]}]}`

	insts := startCluster(t, 2, nil)
	status, _, got := post(t, insts[0].url, "/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sweep = %d: %.200s", status, got)
	}
	var resp struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != rates {
		t.Fatalf("sweep answered %d points, want %d", len(resp.Points), rates)
	}
	total := metricSum(t, insts[0].srv, "mbserve_peer_requests_total")
	ok := metricSum(t, insts[0].srv, "mbserve_peer_requests_total", `result="ok"`)
	if ok < 1 || ok != total {
		t.Errorf("shard requests: %v ok of %v, want every one ok", ok, total)
	}
}

// TestForwardedSimulateByteIdentical sends simulations through a
// three-instance cluster in both request shapes — /v1/simulate with a
// sim block and a /v1/batch simulate item without one — at several
// rates, until each shape has had a peer-owned key. Every answer must
// be byte-identical to a standalone instance's, and every peer-owned
// key must have been one ok forward.
func TestForwardedSimulateByteIdentical(t *testing.T) {
	standalone, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()
	insts := startCluster(t, 3, nil)
	// Enter at the instance owning the least of the ring, so some rate
	// is peer-owned whatever the listeners' ports hash to.
	entry := insts[leastShare(insts)]

	type shape struct {
		path string
		body func(r float64) string
		sim  *scenario.Sim
	}
	const nw = `"network":{"scheme":"full","n":4,"b":2},"model":{"kind":"uniform"}`
	shapes := []shape{
		{
			path: "/v1/simulate",
			body: func(r float64) string {
				return fmt.Sprintf(`{%s,"r":%g,"sim":{"cycles":2000,"seed":5}}`, nw, r)
			},
			sim: &scenario.Sim{Cycles: 2000, Seed: 5},
		},
		{
			path: "/v1/batch",
			body: func(r float64) string {
				return fmt.Sprintf(`{"scenarios":[{"op":"simulate",%s,"r":%g}]}`, nw, r)
			},
		},
	}
	remote := 0
	for _, sh := range shapes {
		peerOwned := 0
		for i := 1; i <= 20 && (i <= 3 || peerOwned == 0); i++ {
			r := float64(i) / 20
			built, err := scenario.Scenario{
				Network: scenario.Network{Scheme: scenario.SchemeFull, N: 4, B: 2},
				Model:   scenario.Model{Kind: scenario.ModelUniform},
				R:       r,
				Sim:     sh.sim,
			}.Build()
			if err != nil {
				t.Fatal(err)
			}
			if entry.mgr.Owner(built.SimulateKey()) != entry.url {
				peerOwned++
			}
			status, _, got := post(t, entry.url, sh.path, sh.body(r))
			if status != http.StatusOK {
				t.Fatalf("%s r=%g = %d: %s", sh.path, r, status, got)
			}
			if _, _, want := post(t, sts.URL, sh.path, sh.body(r)); !bytes.Equal(got, want) {
				t.Errorf("%s r=%g differs from standalone:\n%s\n%s", sh.path, r, got, want)
			}
		}
		if peerOwned == 0 {
			t.Fatalf("%s: no peer-owned key in 20 rates", sh.path)
		}
		remote += peerOwned
	}
	if ok := metricSum(t, entry.srv, "mbserve_peer_requests_total", `result="ok"`); ok != float64(remote) {
		t.Errorf("ok forwards = %v, want %d (one per peer-owned key)", ok, remote)
	}
}
