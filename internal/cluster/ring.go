// Package cluster implements horizontal scale-out for mbserve
// (DESIGN.md §14): a consistent-hash ring over canonical cache keys, an
// HTTP peer client that makes one attempt per call, a membership manager that
// judges peer health, and a routing compute.Backend that forwards each
// evaluation to the key's owning instance — where it joins the owner's
// singleflight, so concurrent identical requests arriving anywhere in
// the cluster compute exactly once. A coordinator variant additionally
// partitions whole sweep grids across peers and merges the streamed
// shards back into deterministic grid order.
//
// Everything routes by the same canonical key strings the cache stores
// under (scenario.Built.AnalyzeKey / SimulateKey / SweepPointKey): two
// instances agree on ownership because they hash identical bytes, the
// same property that makes their cache entries interchangeable. Peer
// failures degrade per shard — a dead peer's keys fail over to local
// compute until its failed forwards and probes evict it from the ring —
// never the whole service.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per peer, small enough that
// ring construction and lookups stay trivial. The key share it gives a
// small cluster is far from uniform: the vnode strings of one peer
// differ only in their last bytes, and unmixed FNV-1a spreads them
// poorly. Over 10000 three-peer rings of random loopback ports, one
// peer owned more than half of the hash space in 57% of them, and the
// pair 127.0.0.1:21871/21872 splits 77.1/22.9. Rebalancing waits on
// analyze routing (DESIGN.md §14).
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over peer URLs. Every
// instance builds its ring from the same -peers list (order-insensitive:
// peers are sorted first), so all instances agree on key ownership.
type Ring struct {
	peers  []string // sorted, deduplicated
	hashes []uint64 // sorted vnode positions
	owners []int    // hashes[i] is owned by peers[owners[i]]
}

// NewRing builds a ring with vnodes virtual nodes per peer (0 means
// DefaultVnodes). Duplicate peers are collapsed; an empty peer list is
// an error — a ring exists to route, a single-instance deployment
// simply does not build one.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	sort.Strings(uniq)
	r := &Ring{
		peers:  uniq,
		hashes: make([]uint64, 0, len(uniq)*vnodes),
		owners: make([]int, 0, len(uniq)*vnodes),
	}
	type vnode struct {
		hash  uint64
		owner int
	}
	vns := make([]vnode, 0, len(uniq)*vnodes)
	for pi, p := range uniq {
		for i := 0; i < vnodes; i++ {
			vns = append(vns, vnode{hash: fnv64a(fmt.Sprintf("%s|%d", p, i)), owner: pi})
		}
	}
	sort.Slice(vns, func(a, b int) bool {
		if vns[a].hash != vns[b].hash {
			return vns[a].hash < vns[b].hash
		}
		// Hash ties (vanishingly rare) break by peer index so every
		// instance still agrees on ownership.
		return vns[a].owner < vns[b].owner
	})
	for _, vn := range vns {
		r.hashes = append(r.hashes, vn.hash)
		r.owners = append(r.owners, vn.owner)
	}
	return r, nil
}

// Owner returns the peer owning key: the first vnode clockwise from the
// key's hash position.
func (r *Ring) Owner(key string) string {
	h := fnv64a(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap around the ring
	}
	return r.peers[r.owners[i]]
}

// Peers returns the ring's members, sorted. The slice is shared and
// must not be mutated.
func (r *Ring) Peers() []string { return r.peers }

// Share returns the fraction of the hash space peer owns — the
// ring-balance gauge. A peer not in the ring owns nothing.
func (r *Ring) Share(peer string) float64 {
	pi := sort.SearchStrings(r.peers, peer)
	if pi == len(r.peers) || r.peers[pi] != peer {
		return 0
	}
	if len(r.peers) == 1 {
		// A sole peer owns every arc, and their lengths sum to 2^64,
		// which wraps to 0 below.
		return 1
	}
	var owned uint64
	for i, h := range r.hashes {
		// The arc ending at hashes[i] starts after the previous vnode
		// (wrapping for i == 0).
		prev := r.hashes[(i+len(r.hashes)-1)%len(r.hashes)]
		if r.owners[i] == pi {
			owned += h - prev // unsigned wraparound handles i == 0
		}
	}
	return float64(owned) / float64(^uint64(0))
}

// fnv64a is 64-bit FNV-1a over the key bytes — the standard constants,
// inlined so the ring has no dependencies and the hash is trivially
// reproducible in tests.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
