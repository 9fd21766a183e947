package cluster

import (
	"fmt"
	"math"
	"testing"
)

var testPeers = []string{
	"http://127.0.0.1:7001",
	"http://127.0.0.1:7002",
	"http://127.0.0.1:7003",
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real canonical cache keys, not random bytes.
		keys[i] = fmt.Sprintf("analyze|v2|nfp=%016x|mfp=%016x|r=%g", i*2654435761, i, float64(i%100)/100)
	}
	return keys
}

// TestRingOwnerOrderIndependent pins the agreement property the whole
// design rests on: every instance builds its ring from its own -peers
// flag, so rings built from any permutation of the list must route
// every key identically.
func TestRingOwnerOrderIndependent(t *testing.T) {
	a, err := NewRing(testPeers, 0)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []string{testPeers[2], testPeers[0], testPeers[1], testPeers[0]} // dup too
	b, err := NewRing(shuffled, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(2000) {
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("ring disagreement on %q: %s vs %s", key, ao, bo)
		}
	}
}

func TestRingOwnerDeterministic(t *testing.T) {
	r, err := NewRing(testPeers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(100) {
		if r.Owner(key) != r.Owner(key) {
			t.Fatalf("owner of %q unstable", key)
		}
	}
}

// TestRingBalance checks the vnode count keeps key distribution within
// sane bounds: every peer owns a non-trivial share of both the hash
// space and an actual key sample.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(testPeers, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	keys := testKeys(6000)
	for _, key := range keys {
		counts[r.Owner(key)]++
	}
	var shareSum float64
	for _, p := range testPeers {
		n := counts[p]
		frac := float64(n) / float64(len(keys))
		if frac < 0.10 {
			t.Errorf("peer %s owns only %.1f%% of sampled keys", p, 100*frac)
		}
		share := r.Share(p)
		if share < 0.10 || share > 0.60 {
			t.Errorf("peer %s hash-space share = %.3f, want a balanced ring", p, share)
		}
		shareSum += share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", shareSum)
	}
}

// TestRingShareSolePeer pins the share of a one-member ring, which a
// cluster reaches when every other peer is evicted: the survivor owns
// the whole hash space.
func TestRingShareSolePeer(t *testing.T) {
	r, err := NewRing(testPeers[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Share(testPeers[0]); got != 1 {
		t.Errorf("sole peer share = %v, want 1", got)
	}
	if got := r.Share(testPeers[1]); got != 0 {
		t.Errorf("non-member share = %v, want 0", got)
	}
}

func TestNewRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := NewRing([]string{"http://a", ""}, 0); err == nil {
		t.Error("empty peer URL accepted")
	}
}

func TestNewRequiresManager(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("backend without a membership manager accepted")
	}
}
