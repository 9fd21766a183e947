package cluster

import (
	"multibus/internal/obs"
)

// Metric families cluster mode adds to the instance registry. The
// server-side counterpart — mbserve_peer_dedup_total, ticked when a
// forwarded request joins an in-flight local computation — lives in the
// service layer, which owns the cache.
const (
	metricPeerRequests  = "mbserve_peer_requests_total"
	metricRingShare     = "mbserve_ring_share"
	metricRingVersion   = "mbserve_ring_version"
	metricMembership    = "mbserve_membership_peers"
	metricProbeFailures = "mbserve_probe_failures_total"
)

// registryHook is the late-bound metrics sink: the backend is built
// before the service (it is injected into service.Options), so the
// registry arrives afterwards via Register.
type registryHook struct {
	reg *obs.Registry
}

// Register binds the manager's metrics into reg: the monotonic ring
// version, the per-state membership census, probe failures by peer,
// and each current ring member's hash-space share. Share gauges for peers that enter the ring later are
// registered by the ring rebuild itself (GaugeFunc re-registration
// replaces the sampling fn, so rebuild-time re-registration is safe and
// evicted peers simply read 0).
func (m *Manager) Register(reg *obs.Registry) {
	h := &registryHook{reg: reg}
	m.reg.Store(h)
	reg.GaugeFunc(metricRingVersion, "membership ring version (monotonic per instance)",
		func() float64 { return float64(m.Version()) })
	for _, state := range []string{StateAlive, StateSuspect, StateEvicted, StateLeft} {
		st := state
		reg.GaugeFunc(metricMembership, "known cluster members by lifecycle state",
			func() float64 {
				n := 0
				for _, s := range m.MemberStates() {
					if s == st {
						n++
					}
				}
				return float64(n)
			}, obs.L("state", st))
	}
	for _, p := range m.Peers() {
		m.registerShareGauge(h, p)
	}
}

// registerShareGauge (re-)binds one peer's hash-space share gauge. The
// sampler reads the live snapshot, so a peer that leaves the ring reads
// 0 without unregistration.
func (m *Manager) registerShareGauge(h *registryHook, peer string) {
	p := peer
	h.reg.GaugeFunc(metricRingShare, "fraction of the key hash space owned by peer",
		func() float64 { return m.Snapshot().Ring.Share(p) }, obs.L("peer", p))
}

// countProbeFailure ticks the per-peer probe failure counter.
func (m *Manager) countProbeFailure(peer string) {
	h := m.reg.Load()
	if h == nil {
		return
	}
	h.reg.Counter(metricProbeFailures, "failed health probes by peer",
		obs.L("peer", peer)).Inc()
}

// Register binds the backend's metrics into reg (normally the serving
// instance's own registry, so cluster families appear on GET /metrics):
// per-peer forward counters by result and — through the shared manager
// — the membership, version, probe, and share families.
func (b *Backend) Register(reg *obs.Registry) {
	b.reg.Store(&registryHook{reg: reg})
	b.manager.Register(reg)
}

// countPeer ticks the per-peer forward counter; a no-op until Register
// has bound a registry.
func (b *Backend) countPeer(peer, result string) {
	h := b.reg.Load()
	if h == nil {
		return
	}
	h.reg.Counter(metricPeerRequests,
		"peer forwards by destination and result (ok, error, or the peer's envelope code)",
		obs.L("peer", peer), obs.L("result", result)).Inc()
}
