// End-to-end cluster tests: real HTTP instances on loopback listeners,
// routed by a shared ring — the properties ISSUE-level acceptance pins:
// byte-identity of forwarded answers, exactly-once compute for
// concurrent identical requests across peers (observable via
// mbserve_peer_dedup_total), coordinator sweeps merging byte-identical
// to a single instance, and per-shard degradation when a peer dies.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multibus/internal/cluster"
	"multibus/internal/compute"
	"multibus/internal/rng"
	"multibus/internal/scenario"
	"multibus/internal/service"
	"multibus/internal/sim"
)

// instance is one clustered mbserve under test.
type instance struct {
	url      string
	srv      *service.Server
	backend  *cluster.Backend
	mgr      *cluster.Manager
	ts       *httptest.Server
	computes atomic.Int64 // closed-form computations this instance ran
}

// clusterHarness holds the optional per-instance decorations the
// failover tests need: wrapAnalyze hooks the closed-form seam,
// wrapLocal the whole local backend (the sweep-point path does not go
// through AnalyzeFunc), httpFor overrides an instance's peer
// transport (the fault injection seam for the peer client), and
// serviceOpts adjusts an instance's service options (admission sizing).
type clusterHarness struct {
	wrapAnalyze func(i int, fn compute.AnalyzeFunc) compute.AnalyzeFunc
	wrapLocal   func(i int, b compute.Backend) compute.Backend
	httpFor     func(i int) *http.Client
	serviceOpts func(i int, o *service.Options)
}

// localHook decorates one instance's local backend, running before
// every sweep-point evaluation.
type localHook struct {
	compute.Backend
	beforeSweepPoint func()
}

func (h *localHook) SweepPoint(ctx context.Context, jb compute.PointJob) (compute.Point, error) {
	if h.beforeSweepPoint != nil {
		h.beforeSweepPoint()
	}
	return h.Backend.SweepPoint(ctx, jb)
}

// startCluster boots n instances on loopback listeners sharing one
// ring. The listeners are bound before any backend is built — the URLs
// must exist up front because every instance's -peers set names all of
// them. wrapAnalyze, when non-nil, decorates each instance's analyze
// seam (compute counting is always installed underneath it).
func startCluster(t *testing.T, n int, wrapAnalyze func(i int, fn compute.AnalyzeFunc) compute.AnalyzeFunc) []*instance {
	return startClusterH(t, n, clusterHarness{wrapAnalyze: wrapAnalyze})
}

func startClusterH(t *testing.T, n int, hz clusterHarness) []*instance {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	insts := make([]*instance, n)
	for i := range insts {
		insts[i] = serveInstance(t, i, lns[i], urls, hz)
	}
	return insts
}

// serveInstance boots instance i of a harness on ln, its membership
// seeded with peers (nil for an instance that learns the cluster by
// joining through a seed).
func serveInstance(t *testing.T, i int, ln net.Listener, peers []string, hz clusterHarness) *instance {
	t.Helper()
	inst := &instance{url: "http://" + ln.Addr().String()}
	analyze := compute.AnalyzeFunc(func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
		inst.computes.Add(1)
		return compute.Local().Analyze(ctx, b)
	})
	if hz.wrapAnalyze != nil {
		analyze = hz.wrapAnalyze(i, analyze)
	}
	var local compute.Backend = compute.NewLocal(analyze, nil)
	if hz.wrapLocal != nil {
		local = hz.wrapLocal(i, local)
	}
	var httpClient *http.Client
	if hz.httpFor != nil {
		httpClient = hz.httpFor(i)
	}
	mgr, err := cluster.NewManager(cluster.ManagerOptions{Self: inst.url, Peers: peers, HTTP: httpClient})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := cluster.New(cluster.Options{Manager: mgr, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	opts := service.Options{Backend: backend, Cluster: mgr}
	if hz.serviceOpts != nil {
		hz.serviceOpts(i, &opts)
	}
	srv, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	backend.Register(srv.Metrics())
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	inst.srv, inst.backend, inst.mgr, inst.ts = srv, backend, mgr, ts
	return inst
}

// evictUntil drives probe rounds on m until peer is evicted — the
// deterministic stand-in for the background prober (which the tests do
// not start, so ring transitions happen exactly when a test asks).
func evictUntil(t *testing.T, m *cluster.Manager, peer string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.MemberStates()[peer] != cluster.StateEvicted {
		if time.Now().After(deadline) {
			t.Fatalf("peer %s never evicted; states %v", peer, m.MemberStates())
		}
		m.ProbeOnce(context.Background())
	}
}

// waitPeersEqual polls until every manager's ring has the same member
// set — the converged-ring precondition for identical routing.
func waitPeersEqual(t *testing.T, ms ...*cluster.Manager) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want, same := strings.Join(ms[0].Peers(), ","), true
		for _, m := range ms[1:] {
			if strings.Join(m.Peers(), ",") != want {
				same = false
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			for _, m := range ms {
				t.Logf("manager %s peers %v", m.Self(), m.Peers())
			}
			t.Fatal("membership views never converged")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// leastShare returns the index of the instance owning the smallest share
// of the ring. Shares depend on the random ports and can be lopsided (a
// 78/16/6 split has been seen), so a sweep coordinated from this
// instance leaves most of its grid to the others: with 36 points, the
// chance that none leaves is below 3^-36.
func leastShare(insts []*instance) int {
	ring := insts[0].backend.Ring()
	least := 0
	for i, inst := range insts {
		if ring.Share(inst.url) < ring.Share(insts[least].url) {
			least = i
		}
	}
	return least
}

// post sends body to url+path and returns status, X-Cache, and body.
func post(t *testing.T, url, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", url, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// metricSum scrapes one instance's registry and sums the series of
// family whose label set contains every given substring.
func metricSum(t *testing.T, srv *service.Server, family string, contains ...string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		match := true
		for _, c := range contains {
			if !strings.Contains(line, c) {
				match = false
			}
		}
		if !match {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing metric line %q: %v", line, err)
		}
		total += v
	}
	return total
}

const clusterAnalyzeBody = `{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}`

// analyzeScenarioAt returns the canonical analyze scenario at rate r
// and its cache key — for picking keys owned by a chosen peer.
func analyzeScenarioAt(t *testing.T, r float64) (string, string) {
	t.Helper()
	sc := scenario.Scenario{
		Network: scenario.Network{Scheme: scenario.SchemeFull, N: 16, B: 8},
		Model:   scenario.Model{Kind: scenario.ModelHier},
		R:       r,
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":%g}`, r)
	return body, built.AnalyzeKey()
}

// TestClusterForwardedAnswersByteIdenticalAndComputeOnce posts one
// scenario to every instance in turn: each answer must be
// byte-identical, the cluster must run the closed form exactly once
// (repeats are served from the owner's cache through the forward), and
// a repeat on the first instance must be a local cache hit.
func TestClusterForwardedAnswersByteIdenticalAndComputeOnce(t *testing.T) {
	insts := startCluster(t, 3, nil)

	var bodies [][]byte
	for _, inst := range insts {
		status, _, body := post(t, inst.url, "/v1/analyze", clusterAnalyzeBody)
		if status != http.StatusOK {
			t.Fatalf("analyze on %s = %d: %s", inst.url, status, body)
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("instance %d body differs:\n%s\n%s", i, bodies[0], bodies[i])
		}
	}
	var computes int64
	for _, inst := range insts {
		computes += inst.computes.Load()
	}
	if computes != 1 {
		t.Errorf("cluster ran the closed form %d times, want exactly 1", computes)
	}
	// Exactly the two non-owner instances forwarded.
	var forwards float64
	for _, inst := range insts {
		forwards += metricSum(t, inst.srv, "mbserve_peer_requests_total", `result="ok"`)
	}
	if forwards != 2 {
		t.Errorf("peer forwards = %v, want 2 (the two non-owners)", forwards)
	}
	status, xc, repeat := post(t, insts[0].url, "/v1/analyze", clusterAnalyzeBody)
	if status != http.StatusOK || xc != "hit" {
		t.Errorf("repeat on first instance = %d X-Cache %q, want 200 hit", status, xc)
	}
	if !bytes.Equal(repeat, bodies[0]) {
		t.Errorf("repeat body differs from original")
	}
}

// TestClusterConcurrentIdenticalRequestsDedup pins the cross-instance
// singleflight: identical requests posted concurrently to two
// NON-owner instances both forward to the owner, where the second
// joins the first's in-flight computation — one compute, and the
// owner's mbserve_peer_dedup_total ticks.
func TestClusterConcurrentIdenticalRequestsDedup(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 3)
	insts := startCluster(t, 3, func(i int, fn compute.AnalyzeFunc) compute.AnalyzeFunc {
		return func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
			started <- struct{}{}
			<-release
			return fn(ctx, b)
		}
	})
	_, key := analyzeScenarioAt(t, 1.0)
	owner := insts[0].backend.Ring().Owner(key)
	var ownerInst *instance
	var nonOwners []*instance
	for _, inst := range insts {
		if inst.url == owner {
			ownerInst = inst
		} else {
			nonOwners = append(nonOwners, inst)
		}
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
	)
	do := func(inst *instance) {
		defer wg.Done()
		status, _, body := post(t, inst.url, "/v1/analyze", clusterAnalyzeBody)
		if status != http.StatusOK {
			t.Errorf("analyze = %d: %s", status, body)
			return
		}
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
	}
	wg.Add(1)
	go do(nonOwners[0])
	<-started // the owner's compute is in flight
	wg.Add(1)
	go do(nonOwners[1])
	// The second forward joins the owner's flight; SharedFlights ticks
	// before it starts waiting, so polling it closes the race with the
	// release below.
	deadline := time.Now().Add(10 * time.Second)
	for ownerInst.srv.Cache().Stats().SharedFlights == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second forward never joined the owner's flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if len(bodies) == 2 && !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("concurrent answers differ:\n%s\n%s", bodies[0], bodies[1])
	}
	var computes int64
	for _, inst := range insts {
		computes += inst.computes.Load()
	}
	if computes != 1 {
		t.Errorf("cluster ran the closed form %d times, want exactly 1", computes)
	}
	if got := metricSum(t, ownerInst.srv, "mbserve_peer_dedup_total"); got != 1 {
		t.Errorf("owner mbserve_peer_dedup_total = %v, want 1", got)
	}
}

const clusterSweepBody = `{"ns":[4,8],"bs":[1,2,4],"rs":[0.25,0.75],"schemes":["full","single","crossbar"],"hierarchical":true}`

// TestCoordinatorSweepByteIdenticalToSingleInstance partitions a sweep
// across three peers and requires the merged response to match a
// standalone instance's byte for byte — points in deterministic grid
// order, however the shards interleaved.
func TestCoordinatorSweepByteIdenticalToSingleInstance(t *testing.T) {
	standalone, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()

	insts := startCluster(t, 3, nil)
	coord := insts[leastShare(insts)]

	status, _, want := post(t, sts.URL, "/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("standalone sweep = %d: %s", status, want)
	}
	status, _, got := post(t, coord.url, "/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("coordinator sweep = %d: %s", status, got)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("coordinator sweep differs from standalone:\nstandalone:  %s\ncoordinator: %s", want, got)
	}
	// The coordinator owns the smallest share, so the 36-point grid all
	// but surely leaves points to its peers; at least one shard must have
	// gone over the wire.
	if forwards := metricSum(t, coord.srv, "mbserve_peer_requests_total", `result="ok"`); forwards < 1 {
		t.Errorf("coordinator forwarded no shards (peer ok count = %v)", forwards)
	}
}

// TestCoordinatorSweepMergesAroundSheddingPeer: peers with one
// admission unit, no queue, and that unit held answer their shards with
// an overloaded record per point; the coordinator retries every one of
// them locally, and the merged sweep is still byte-identical to a
// standalone instance's. Both peers shed, so the test does not depend on
// how the random ports split the grid between them. Every instance has
// the one unit, since the coordinator is picked after boot; its own
// unit stays free, and it evaluates its shard and then the retries
// through a pool of one.
func TestCoordinatorSweepMergesAroundSheddingPeer(t *testing.T) {
	const heldRate = 0.125
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	insts := startClusterH(t, 3, clusterHarness{
		wrapAnalyze: func(_ int, fn compute.AnalyzeFunc) compute.AnalyzeFunc {
			return func(ctx context.Context, b *scenario.Built) (*compute.Analysis, error) {
				if b.Scenario.R == heldRate {
					entered <- struct{}{}
					<-release
				}
				return fn(ctx, b)
			}
		},
		serviceOpts: func(_ int, o *service.Options) {
			o.AdmissionLimit, o.QueueDepth = 1, -1
		},
	})
	ci := leastShare(insts)
	coord := insts[ci]
	peers := append(append([]*instance(nil), insts[:ci]...), insts[ci+1:]...)
	// Park an analyze in each peer's only slot. The hop-guard header
	// makes the peer compute it locally whichever instance owns the key.
	var held sync.WaitGroup
	body, _ := analyzeScenarioAt(t, heldRate)
	for _, peer := range peers {
		held.Add(1)
		go func(url string) {
			defer held.Done()
			req, err := http.NewRequest(http.MethodPost, url+"/v1/analyze", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(compute.ForwardedHeader, coord.url)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}(peer.url)
		<-entered
	}
	defer func() {
		close(release)
		held.Wait()
	}()

	standalone, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()
	status, _, want := post(t, sts.URL, "/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("standalone sweep = %d: %s", status, want)
	}
	status, _, got := post(t, coord.url, "/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("coordinator sweep = %d: %s", status, got)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("coordinator sweep differs from standalone:\nstandalone:  %s\ncoordinator: %s", want, got)
	}
	// The coordinator owns the smallest share, so the 36-point grid all
	// but surely gives the peers a shard, and every point of it was shed
	// there.
	var shed float64
	for _, peer := range peers {
		shed += metricSum(t, peer.srv, "mbserve_shed_total", `route="sweep"`)
	}
	if shed < 1 {
		t.Errorf("peers shed %v sweep points, want ≥ 1", shed)
	}
}

// TestCoordinatorSweepJobStreamsMergedGrid runs the same partitioned
// sweep through the async jobs surface: the streamed records must be
// the standalone sweep's points, in grid order — the coordinator's
// shard merge feeding the publisher's gap-free frontier.
func TestCoordinatorSweepJobStreamsMergedGrid(t *testing.T) {
	standalone, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()
	status, _, sweepBody := post(t, sts.URL, "/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("standalone sweep = %d", status)
	}
	var want struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(sweepBody, &want); err != nil {
		t.Fatal(err)
	}

	insts := startCluster(t, 3, nil)
	status, _, jobBody := post(t, insts[0].url, "/v1/jobs", `{"sweep":`+clusterSweepBody+`}`)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("job submit = %d: %s", status, jobBody)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(jobBody, &job); err != nil || job.ID == "" {
		t.Fatalf("job submit body %s: %v", jobBody, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(insts[0].url + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("job status %s: %v", b, err)
		}
		if st.State == "succeeded" || st.State == "done" || st.State == "completed" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job ended in state %q: %s", st.State, b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q at deadline", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(insts[0].url + "/v1/jobs/" + job.ID + "/results?limit=1000")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var page struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(b, &page); err != nil {
		t.Fatalf("results page %s: %v", b, err)
	}
	if len(page.Records) != len(want.Points) {
		t.Fatalf("job streamed %d records, standalone sweep has %d points", len(page.Records), len(want.Points))
	}
	for i := range page.Records {
		if !bytes.Equal(bytes.TrimSpace(page.Records[i]), bytes.TrimSpace(want.Points[i])) {
			t.Errorf("record %d = %s, want %s", i, page.Records[i], want.Points[i])
		}
	}
}

// TestPeerDeathDegradesOnlyItsShard kills one instance and runs no
// probe round: keys it owned fail over to local compute on instance 0
// (every answer 200 and byte-identical to a standalone instance), the
// failed forwards alone suspect and then evict it from instance 0's
// ring, a later key it owned is answered without another request to
// it, and keys owned by the surviving peer keep forwarding.
func TestPeerDeathDegradesOnlyItsShard(t *testing.T) {
	standalone, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()
	insts := startCluster(t, 3, nil)
	dead := insts[2]
	dead.ts.Close()

	// Distinct analyze keys owned by the dead peer (enough to evict it,
	// plus one for after) and by the surviving peer, as seen from
	// instance 0.
	const failedForwards = 4
	ring := insts[0].backend.Ring()
	var deadBodies, aliveBodies []string
	for i := 1; i < 1000 && (len(deadBodies) <= failedForwards || len(aliveBodies) < 1); i++ {
		body, key := analyzeScenarioAt(t, float64(i)/1000)
		switch ring.Owner(key) {
		case dead.url:
			if len(deadBodies) <= failedForwards {
				deadBodies = append(deadBodies, body)
			}
		case insts[1].url:
			if len(aliveBodies) < 1 {
				aliveBodies = append(aliveBodies, body)
			}
		}
	}
	if len(deadBodies) <= failedForwards || len(aliveBodies) < 1 {
		t.Fatalf("key sampling found %d dead-owned and %d alive-owned keys", len(deadBodies), len(aliveBodies))
	}
	answer := func(body string) {
		t.Helper()
		status, _, got := post(t, insts[0].url, "/v1/analyze", body)
		if status != http.StatusOK {
			t.Fatalf("analyze = %d: %s", status, got)
		}
		if _, _, want := post(t, sts.URL, "/v1/analyze", body); !bytes.Equal(got, want) {
			t.Errorf("cluster answer differs from standalone:\n%s\n%s", got, want)
		}
	}
	deadPeer := `peer="` + dead.url + `"`

	for i, body := range deadBodies[:failedForwards] {
		answer(body)
		if i == 1 {
			if st := insts[0].mgr.MemberStates()[dead.url]; st != cluster.StateSuspect {
				t.Errorf("dead peer is %s after 2 failed forwards, want suspect", st)
			}
		}
	}
	if st := insts[0].mgr.MemberStates()[dead.url]; st != cluster.StateEvicted {
		t.Fatalf("dead peer is %s after %d failed forwards, want evicted", st, failedForwards)
	}
	if peers := insts[0].mgr.Peers(); len(peers) != 2 {
		t.Fatalf("ring after eviction = %v, want 2 members", peers)
	}
	if errs := metricSum(t, insts[0].srv, "mbserve_peer_requests_total", deadPeer, `result="error"`); errs != failedForwards {
		t.Errorf("dead peer error count = %v, want %d", errs, failedForwards)
	}

	// A later dead-owned key now belongs to a survivor: no new request
	// reaches the dead peer.
	before := metricSum(t, insts[0].srv, "mbserve_peer_requests_total", deadPeer)
	answer(deadBodies[failedForwards])
	if after := metricSum(t, insts[0].srv, "mbserve_peer_requests_total", deadPeer); after != before {
		t.Errorf("requests to the evicted peer went %v → %v", before, after)
	}

	// The surviving shard still forwards.
	answer(aliveBodies[0])
	if ok := metricSum(t, insts[0].srv, "mbserve_peer_requests_total", `peer="`+insts[1].url+`"`, `result="ok"`); ok < 1 {
		t.Errorf("no successful forward to the surviving peer (ok = %v)", ok)
	}
}

// TestSweepJobSurvivesPeerDeathMidSweep is the coordinator-failover
// acceptance test: a partitioned sweep is submitted as an async job, a
// peer dies while its shard is in flight, the prober evicts it (ring
// transition mid-sweep), and the undelivered indices recompute on the
// coordinator. The job's streamed records must be byte-identical to a
// standalone sweep, the jobs publisher panics on any duplicate emission
// (the correctness oracle — a panic fails the test), and the evicted
// peer is visible in mbserve_membership_peers{state="evicted"}.
func TestSweepJobSurvivesPeerDeathMidSweep(t *testing.T) {
	standalone, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()
	status, _, sweepBody := post(t, sts.URL, "/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("standalone sweep = %d", status)
	}
	var want struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(sweepBody, &want); err != nil {
		t.Fatal(err)
	}

	// The coordinator is the instance with the smallest ring share
	// (leastShare), leaving most of the grid to the other two.
	// Every instance is hooked and the hook skips the coordinator: the
	// victim is whichever peer starts a sweep point first, and only its
	// evaluations block until released, so its shard is
	// deterministically in flight when it dies.
	var coordIdx, victimIdx atomic.Int32
	victimIdx.Store(-1)
	release := make(chan struct{})
	started := make(chan struct{})
	insts := startClusterH(t, 3, clusterHarness{
		wrapLocal: func(i int, b compute.Backend) compute.Backend {
			return &localHook{Backend: b, beforeSweepPoint: func() {
				if i == int(coordIdx.Load()) {
					return
				}
				if victimIdx.CompareAndSwap(-1, int32(i)) {
					close(started)
				}
				if victimIdx.Load() == int32(i) {
					<-release
				}
			}}
		},
	})
	coordIdx.Store(int32(leastShare(insts)))
	coord := insts[coordIdx.Load()]

	status, _, jobBody := post(t, coord.url, "/v1/jobs", `{"sweep":`+clusterSweepBody+`}`)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("job submit = %d: %s", status, jobBody)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(jobBody, &job); err != nil || job.ID == "" {
		t.Fatalf("job submit body %s: %v", jobBody, err)
	}
	select {
	case <-started:
	case <-time.After(15 * time.Second):
		t.Fatal("no peer received a sweep shard")
	}
	victim := insts[victimIdx.Load()]
	// Kill the victim. Close shuts the listener immediately (probes start
	// being refused) but blocks until the stalled handler returns, so it
	// runs detached; the coordinator's shard stream stays open until the
	// client connections are torn down below.
	closed := make(chan struct{})
	go func() { victim.ts.Close(); close(closed) }()
	evictUntil(t, coord.mgr, victim.url)
	// The ring has transitioned; now break the in-flight shard stream.
	// The coordinator sees the transport failure, recomputes exactly the
	// undelivered indices itself, and finishes.
	victim.ts.CloseClientConnections()
	close(release)
	<-closed

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(coord.url + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("job status %s: %v", b, err)
		}
		if st.State == "succeeded" || st.State == "done" || st.State == "completed" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job ended in state %q: %s", st.State, b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q at deadline", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(coord.url + "/v1/jobs/" + job.ID + "/results?limit=1000")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var page struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(b, &page); err != nil {
		t.Fatalf("results page %s: %v", b, err)
	}
	if len(page.Records) != len(want.Points) {
		t.Fatalf("job streamed %d records, standalone sweep has %d points", len(page.Records), len(want.Points))
	}
	for i := range page.Records {
		if !bytes.Equal(bytes.TrimSpace(page.Records[i]), bytes.TrimSpace(want.Points[i])) {
			t.Errorf("record %d = %s, want %s", i, page.Records[i], want.Points[i])
		}
	}
	if got := metricSum(t, coord.srv, "mbserve_membership_peers", `state="evicted"`); got != 1 {
		t.Errorf("mbserve_membership_peers{state=\"evicted\"} = %v, want 1", got)
	}
	if v := metricSum(t, coord.srv, "mbserve_ring_version"); v < 2 {
		t.Errorf("mbserve_ring_version = %v, want >= 2 after the eviction", v)
	}
}

// TestEvictedPeerRejoins is the elastic-membership acceptance test: a
// key's owner dies and is evicted, a fresh instance on the same address
// joins back through a seed member, every view converges on the full
// ring, and a repeat of the pre-death request — now owned by the cold
// rejoined instance again — answers byte-identical to the pre-death
// answer.
func TestEvictedPeerRejoins(t *testing.T) {
	insts := startCluster(t, 3, nil)
	victim := insts[2]

	// A body whose analyze key the victim owns, answered through a
	// non-owner before the victim dies.
	var body string
	for i := 1; i < 1000 && body == ""; i++ {
		b, key := analyzeScenarioAt(t, float64(i)/1000)
		if insts[0].mgr.Owner(key) == victim.url {
			body = b
		}
	}
	if body == "" {
		t.Fatal("key sampling found no victim-owned key")
	}
	status, _, want := post(t, insts[1].url, "/v1/analyze", body)
	if status != http.StatusOK {
		t.Fatalf("pre-death analyze = %d: %s", status, want)
	}

	victim.ts.Close()
	evictUntil(t, insts[0].mgr, victim.url)
	evictUntil(t, insts[1].mgr, victim.url)
	if got := metricSum(t, insts[0].srv, "mbserve_membership_peers", `state="evicted"`); got != 1 {
		t.Fatalf("mbserve_membership_peers{state=\"evicted\"} = %v, want 1", got)
	}

	// A fresh instance on the victim's address: empty cache, a
	// membership view of just itself — everything it knows it learns
	// from the join.
	ln, err := net.Listen("tcp", strings.TrimPrefix(victim.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	reborn := serveInstance(t, 2, ln, nil, clusterHarness{})

	// Join through a seed member: the seed's view is adopted locally,
	// and the join announced to every member in it converges all three
	// views.
	if err := reborn.mgr.Join(context.Background(), insts[0].url); err != nil {
		t.Fatal(err)
	}
	waitPeersEqual(t, insts[0].mgr, insts[1].mgr, reborn.mgr)
	if got := len(reborn.mgr.Peers()); got != 3 {
		t.Fatalf("rejoined ring has %d members, want 3", got)
	}

	status, xc, got := post(t, victim.url, "/v1/analyze", body)
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("post-rejoin repeat = %d X-Cache %q, want 200 miss on the cold instance", status, xc)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-rejoin answer differs from the pre-death one:\n%s\n%s", want, got)
	}
	if n := reborn.computes.Load(); n != 1 {
		t.Errorf("rejoined owner computed %d times, want 1 (it owns the key again)", n)
	}
}

// TestGracefullyRestartedPeerRejoins: an instance that leaves on
// shutdown and restarts on the same address with the same peer list
// announces its join, and every other member lists it alive again. A
// left member is never probed back in, so without the announcement it
// would stay out of every ring.
func TestGracefullyRestartedPeerRejoins(t *testing.T) {
	insts := startCluster(t, 3, nil)
	victim := insts[2]
	victim.mgr.Leave(context.Background())
	for _, inst := range insts[:2] {
		if st := inst.mgr.MemberStates()[victim.url]; st != cluster.StateLeft {
			t.Fatalf("%s lists the departed peer as %s, want left", inst.url, st)
		}
	}
	victim.ts.Close()

	ln, err := net.Listen("tcp", strings.TrimPrefix(victim.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{insts[0].url, insts[1].url, victim.url}
	reborn := serveInstance(t, 2, ln, urls, clusterHarness{})
	if err := reborn.mgr.Join(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts[:2] {
		if st := inst.mgr.MemberStates()[victim.url]; st != cluster.StateAlive {
			t.Errorf("%s lists the restarted peer as %s, want alive", inst.url, st)
		}
	}
	waitPeersEqual(t, insts[0].mgr, insts[1].mgr, reborn.mgr)
}

// failTransport fails every request before it reaches the network.
type failTransport struct{}

func (failTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return nil, errDropped
}

// TestJoinReachesMembersTheSeedCannot: the joiner announces itself to
// every member of the seed's view, so a member the seed cannot reach
// still lists the joiner alive as soon as Join returns.
func TestJoinReachesMembersTheSeedCannot(t *testing.T) {
	insts := startClusterH(t, 3, clusterHarness{
		httpFor: func(i int) *http.Client {
			if i != 0 {
				return nil
			}
			return &http.Client{Transport: failTransport{}}
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joiner := serveInstance(t, 3, ln, nil, clusterHarness{})
	if err := joiner.mgr.Join(context.Background(), insts[0].url); err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		if st := inst.mgr.MemberStates()[joiner.url]; st != cluster.StateAlive {
			t.Errorf("%s lists the joiner as %s, want alive", inst.url, st)
		}
	}
	if got := len(joiner.mgr.Peers()); got != 4 {
		t.Errorf("joiner's ring has %d members, want 4", got)
	}
}

// dropTransport fails a seeded fraction of requests with a transport
// error before they reach the network, and counts what it did.
type dropTransport struct {
	mu           sync.Mutex
	rng          *rng.Rand
	rate         float64
	calls, drops int
}

var errDropped = errors.New("dropped by test transport")

func (d *dropTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	d.calls++
	drop := d.rng.Float64() < d.rate
	if drop {
		d.drops++
	}
	d.mu.Unlock()
	if drop {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errDropped
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (d *dropTransport) counts() (calls, drops int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls, d.drops
}

// TestProbeChaosHysteresisKeepsRingStable wires a seeded lossy
// transport under one instance's peer client (the ManagerOptions.HTTP
// seam): probe rounds lose a deterministic quarter of their requests,
// failures are counted, and the suspect/confirm hysteresis keeps both
// healthy peers in the ring through every round — lossy probing
// degrades observability, not membership.
func TestProbeChaosHysteresisKeepsRingStable(t *testing.T) {
	tr := &dropTransport{rng: sim.NewSeededRand(11), rate: 0.25}
	insts := startClusterH(t, 3, clusterHarness{
		httpFor: func(i int) *http.Client {
			if i != 0 {
				return nil
			}
			return &http.Client{Transport: tr}
		},
	})
	m := insts[0].mgr
	for round := 0; round < 30; round++ {
		if m.ProbeOnce(context.Background()) {
			t.Errorf("probe round %d changed the ring under lossy probing", round)
		}
	}
	if calls, drops := tr.counts(); drops < 1 {
		t.Fatalf("lossy transport injected no drops over %d calls", calls)
	}
	if fails := metricSum(t, insts[0].srv, "mbserve_probe_failures_total"); fails < 1 {
		t.Error("dropped probes were not counted in mbserve_probe_failures_total")
	}
	states := m.MemberStates()
	for _, p := range []string{insts[1].url, insts[2].url} {
		if states[p] == cluster.StateEvicted {
			t.Errorf("healthy peer %s evicted under lossy probing; states %v", p, states)
		}
	}
	if len(m.Peers()) != 3 {
		t.Errorf("ring shrank to %v under lossy probing", m.Peers())
	}
}
