package service

import (
	"context"
	"net/http"

	"multibus/internal/compute"
)

// Elastic membership surface (DESIGN.md §16). The service exposes one
// cluster control-plane endpoint — membership applications — and a
// readiness probe split from liveness. The endpoint is authenticated by
// the hop guard: only requests carrying X-Mb-Forwarded (which only peers
// send) are accepted; everything else is a 403, including on instances
// where cluster mode is enabled. Fronting proxies must strip the header,
// exactly as they must for the forwarding loop guard — one invariant,
// two protections.

// ClusterControl is the seam between the service and the cluster
// membership manager (implemented by *cluster.Manager; the service
// never imports internal/cluster). Methods mirror the manager's
// public surface using only builtin types.
type ClusterControl interface {
	// Apply mutates membership: op is "join" or "leave", peer the
	// subject. Idempotent; changed=false means the view already agreed.
	Apply(op, peer string) (version uint64, peers []string, changed bool, err error)
	// MemberStates lists every known member's lifecycle state.
	MemberStates() map[string]string
	// Leave announces this instance's departure to every ring peer.
	Leave(ctx context.Context)
}

// clusterGuard runs the shared preamble of the cluster control-plane
// handlers: hop-guard authentication first (403 — the endpoint does not
// exist for non-peers, even to report whether cluster mode is on), then
// cluster-mode presence (404 on standalone instances).
func (s *Server) clusterGuard(w http.ResponseWriter, r *http.Request) bool {
	if !compute.Forwarded(r.Context()) {
		writeError(w, http.StatusForbidden, "forbidden",
			"cluster control endpoints accept peer-forwarded requests only")
		return false
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not_found",
			"cluster mode is not enabled on this instance")
		return false
	}
	return true
}

// handleClusterMembership serves POST /v1/cluster/membership: one
// join/leave application, answered with this instance's resulting view
// (a joiner adopts the peer list from it).
func (s *Server) handleClusterMembership(w http.ResponseWriter, r *http.Request) {
	if !s.clusterGuard(w, r) {
		return
	}
	var req compute.MembershipRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	version, peers, changed, err := s.cluster.Apply(req.Op, req.Peer)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, compute.MembershipView{
		Version: version,
		Peers:   peers,
		States:  s.cluster.MemberStates(),
		Changed: changed,
	})
}

// handleReadyz serves GET /readyz — readiness, split from /healthz
// liveness. A standalone instance is ready as soon as it serves; a
// cluster instance is not ready until StartCluster has run — after it
// has announced its join — and stops being ready when draining begins. Liveness stays green through the
// not-ready window — the process is healthy, just not routable.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; stop routing new requests here")
		return
	}
	if s.cluster != nil && !s.clusterReady.Load() {
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"cluster membership is not initialized yet")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// ClusterReady reports whether the readiness gate is open (always true
// for standalone instances).
func (s *Server) ClusterReady() bool {
	return s.cluster == nil || s.clusterReady.Load()
}

// StartCluster opens the readiness gate of a cluster instance. Call it
// once the instance has announced its join: after the listener is up
// and the membership manager's Join has returned, so every reachable
// member routes here by the time the gate opens. It does no I/O and
// returns at once.
func (s *Server) StartCluster(_ context.Context) {
	s.clusterReady.Store(true)
}

// LeaveCluster announces this instance's graceful departure to the ring.
// Call before BeginDrain, so peers stop routing here while this instance
// still answers.
func (s *Server) LeaveCluster(ctx context.Context) {
	if s.cluster != nil {
		s.cluster.Leave(ctx)
	}
}
