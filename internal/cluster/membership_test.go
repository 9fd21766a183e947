package cluster

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func newTestManager(t *testing.T, self string, peers []string) *Manager {
	t.Helper()
	m, err := NewManager(ManagerOptions{Self: self, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRingMinimalMovement pins the consistent-hashing property elastic
// membership depends on: when one of N peers leaves the ring, only the
// departed peer's keys change owner — every key another peer owned
// stays put — and the movement fraction tracks the departed peer's
// hash-space share (≈1/N).
func TestRingMinimalMovement(t *testing.T) {
	peers := []string{
		"http://127.0.0.1:7001", "http://127.0.0.1:7002",
		"http://127.0.0.1:7003", "http://127.0.0.1:7004",
		"http://127.0.0.1:7005",
	}
	full, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	gone := peers[2]
	reduced, err := NewRing(append(append([]string(nil), peers[:2]...), peers[3:]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(8000)
	moved := 0
	for _, key := range keys {
		before, after := full.Owner(key), reduced.Owner(key)
		if before != gone && before != after {
			t.Fatalf("key %q moved %s→%s though its owner stayed in the ring", key, before, after)
		}
		if before != after {
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	share := full.Share(gone)
	if math.Abs(frac-share) > 0.03 {
		t.Errorf("%.3f of keys moved, but the departed peer's share was %.3f", frac, share)
	}
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("movement fraction %.3f is far from ~1/N = %.3f", frac, 1/float64(len(peers)))
	}
}

// TestObserveProbeHysteresis drives the full lifecycle through the
// state machine: alive → suspect (no ring change) → evicted (ring
// transition) → alive again only after the rejoin streak, with a single
// success clearing suspicion.
func TestObserveProbeHysteresis(t *testing.T) {
	self, peer := testPeers[0], testPeers[1]
	m := newTestManager(t, self, testPeers)
	v0 := m.Version()

	// suspectAfter-1 failures: still alive.
	m.observe(peer, false)
	if st := m.MemberStates()[peer]; st != StateAlive {
		t.Fatalf("state after 1 failure = %s, want alive", st)
	}
	// One more: suspect — but still in the ring, version unchanged.
	if m.observe(peer, false) {
		t.Fatal("suspicion transitioned the ring")
	}
	if st := m.MemberStates()[peer]; st != StateSuspect {
		t.Fatalf("state after %d failures = %s, want suspect", suspectAfter, st)
	}
	if m.Version() != v0 {
		t.Fatal("version bumped without a ring change")
	}
	// A single success clears suspicion entirely.
	m.observe(peer, true)
	if st := m.MemberStates()[peer]; st != StateAlive {
		t.Fatalf("state after recovery = %s, want alive", st)
	}
	// Fail through to eviction: the ring transitions exactly once.
	transitions := 0
	for i := 0; i < evictAfter; i++ {
		if m.observe(peer, false) {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("eviction caused %d ring transitions, want 1", transitions)
	}
	if st := m.MemberStates()[peer]; st != StateEvicted {
		t.Fatalf("state after %d failures = %s, want evicted", evictAfter, st)
	}
	if m.Version() != v0+1 {
		t.Fatalf("version = %d after eviction, want %d", m.Version(), v0+1)
	}
	for _, p := range m.Peers() {
		if p == peer {
			t.Fatal("evicted peer still in the ring")
		}
	}
	// Rejoin hysteresis: one success is not enough…
	m.observe(peer, true)
	if st := m.MemberStates()[peer]; st != StateEvicted {
		t.Fatalf("state after 1 success = %s, want still evicted", st)
	}
	// …and a failure resets the streak.
	m.observe(peer, false)
	m.observe(peer, true)
	m.observe(peer, true)
	if st := m.MemberStates()[peer]; st != StateEvicted {
		t.Fatal("rejoin streak survived an interleaved failure")
	}
	if !m.observe(peer, true) {
		t.Fatal("rejoin streak did not re-admit the peer")
	}
	if st := m.MemberStates()[peer]; st != StateAlive {
		t.Fatalf("state after rejoin = %s, want alive", st)
	}
	if m.Version() != v0+2 {
		t.Fatalf("version = %d after rejoin, want %d", m.Version(), v0+2)
	}
}

// TestApplyJoinLeaveIdempotent pins idempotence: re-applying a change
// reports changed=false.
func TestApplyJoinLeaveIdempotent(t *testing.T) {
	m := newTestManager(t, testPeers[0], testPeers[:2])
	newcomer := testPeers[2]

	_, peers, changed, err := m.Apply("join", newcomer)
	if err != nil || !changed {
		t.Fatalf("join: changed=%v err=%v", changed, err)
	}
	if len(peers) != 3 {
		t.Fatalf("ring has %d peers after join, want 3", len(peers))
	}
	if _, _, changed, _ := m.Apply("join", newcomer); changed {
		t.Fatal("re-applied join reported a change")
	}
	if _, _, changed, _ := m.Apply("leave", newcomer); !changed {
		t.Fatal("leave reported no change")
	}
	if _, _, changed, _ := m.Apply("leave", newcomer); changed {
		t.Fatal("re-applied leave reported a change")
	}
	if st := m.MemberStates()[newcomer]; st != StateLeft {
		t.Fatalf("state after leave = %s, want left", st)
	}
	// Left is terminal for the prober but not for an explicit join.
	if _, _, changed, _ := m.Apply("join", newcomer); !changed {
		t.Fatal("explicit join did not re-admit a left peer")
	}
	if _, _, _, err := m.Apply("restart", newcomer); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, _, _, err := m.Apply("join", "  "); err == nil {
		t.Fatal("blank peer accepted")
	}
}

// TestStatusErrorEnvelopeParse pins the satellite fix: a peer's non-200
// carrying the v1 error envelope surfaces its machine-readable code,
// while plain bodies degrade to http_<status>.
func TestStatusErrorEnvelopeParse(t *testing.T) {
	mk := func(status int, body string) *StatusError {
		resp := &http.Response{
			StatusCode: status,
			Body:       io.NopCloser(strings.NewReader(body)),
		}
		return newStatusError(resp)
	}
	se := mk(429, `{"error":{"code":"overloaded","message":"admission queue full","retryable":true,"retry_after_s":1}}`)
	if se.Code != "overloaded" || se.Result() != "overloaded" {
		t.Errorf("envelope parse: code=%q result=%q, want overloaded", se.Code, se.Result())
	}
	if se.Body != "admission queue full" {
		t.Errorf("envelope message = %q", se.Body)
	}
	if !strings.Contains(se.Error(), "429 overloaded") {
		t.Errorf("Error() = %q, want status and code", se.Error())
	}
	se = mk(502, "Bad Gateway\nsecond line ignored")
	if se.Code != "" || se.Result() != "http_502" {
		t.Errorf("plain body: code=%q result=%q, want http_502", se.Code, se.Result())
	}
	if se.Body != "Bad Gateway" {
		t.Errorf("plain body first line = %q", se.Body)
	}
	// Only a missing response counts against the peer: any status error,
	// a 5xx included, means the peer answered.
	if unreachable(mk(503, `{"error":{"code":"draining","message":"x"}}`)) {
		t.Error("enveloped 503 counted as unreachable")
	}
	if unreachable(mk(400, `{"error":{"code":"invalid_request","message":"x"}}`)) {
		t.Error("enveloped 400 counted as unreachable")
	}
	if unreachable(fmt.Errorf("cluster: decoding /v1/analyze response: %w", io.ErrUnexpectedEOF)) {
		t.Error("a response that failed to decode counted as unreachable")
	}
	if !unreachable(&url.Error{Op: "Post", URL: "http://peer/v1/analyze", Err: syscall.ECONNREFUSED}) {
		t.Error("a refused connection not counted as unreachable")
	}
}

// TestForwardOutcomesDriveMembership pins the observation rules of the
// forward path: forwards that get no HTTP response move a peer alive →
// suspect → evicted at the same counts as failed probes, any HTTP
// response (4xx and 5xx included) shows it alive, and a forward whose
// caller canceled or timed out is not an observation at all.
func TestForwardOutcomesDriveMembership(t *testing.T) {
	self, peer := testPeers[0], testPeers[1]
	m := newTestManager(t, self, testPeers)
	b, err := New(Options{Manager: m})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refused := &url.Error{Op: "Post", URL: peer + "/v1/analyze", Err: syscall.ECONNREFUSED}
	state := func() string { return m.MemberStates()[peer] }

	// An error status between two transport failures resets the streak:
	// were it counted as a failure, the peer would be suspect.
	for _, status := range []int{500, 502, 503, 504, 400, 429} {
		b.settle(ctx, peer, refused)
		b.settle(ctx, peer, &StatusError{Status: status})
		if st := state(); st != StateAlive {
			t.Fatalf("state after a failure and a %d = %s, want alive", status, st)
		}
	}
	b.settle(ctx, peer, nil)

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	expired, cancel2 := context.WithTimeout(ctx, -time.Second)
	defer cancel2()
	for i := 0; i < 2*evictAfter; i++ {
		b.settle(canceled, peer, &url.Error{Op: "Post", URL: peer, Err: context.Canceled})
		b.settle(expired, peer, &url.Error{Op: "Post", URL: peer, Err: context.DeadlineExceeded})
	}
	if st := state(); st != StateAlive {
		t.Fatalf("state after caller-side cancellations = %s, want alive", st)
	}

	v0 := m.Version()
	for i := 1; i <= evictAfter; i++ {
		b.settle(ctx, peer, refused)
		want := StateAlive
		switch {
		case i >= evictAfter:
			want = StateEvicted
		case i >= suspectAfter:
			want = StateSuspect
		}
		if st := state(); st != want {
			t.Fatalf("state after %d failed forwards = %s, want %s", i, st, want)
		}
	}
	if m.Version() != v0+1 || len(m.Peers()) != len(testPeers)-1 {
		t.Fatalf("eviction left version %d (want %d) and ring %v", m.Version(), v0+1, m.Peers())
	}
}

// TestProbeJitterSeededBySelf pins the per-instance jitter stream:
// managers with different Self URLs draw different probe sleeps, and
// the same Self draws the same sequence every time.
func TestProbeJitterSeededBySelf(t *testing.T) {
	draws := func(self string) []time.Duration {
		m := newTestManager(t, self, testPeers)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = m.nextProbeDelay()
			if lo, hi := DefaultProbeInterval*3/4, DefaultProbeInterval*5/4; out[i] < lo || out[i] >= hi {
				t.Fatalf("probe delay %v outside [%v, %v)", out[i], lo, hi)
			}
		}
		return out
	}
	a := draws(testPeers[0])
	if reflect.DeepEqual(a, draws(testPeers[1])) {
		t.Errorf("two instances drew the same jitter sequence %v", a)
	}
	if again := draws(testPeers[0]); !reflect.DeepEqual(a, again) {
		t.Errorf("same Self drew %v, then %v", a, again)
	}
}
