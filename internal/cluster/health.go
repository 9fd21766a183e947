package cluster

import (
	"context"
	"sort"
	"time"
)

// Peer health (DESIGN.md §16): one suspect → confirm → evict state
// machine per peer, fed by two inputs. The manager periodically GETs
// every known non-self member's /healthz (ProbeOnce), and the Backend
// reports the outcome of every forward and shard (report). Failure must
// accumulate before the ring moves (suspectAfter consecutive failures
// raise suspicion without a ring change; evictAfter confirm it and
// evict), and recovery must accumulate before it moves back
// (rejoinAfter consecutive successes re-admit an evicted peer) —
// hysteresis in both directions, so a flapping peer cannot thrash the
// ring on every blip. Left members are not probed: a deliberate
// departure returns only when the instance announces its own join.

// ProbeOnce runs one synchronous probe round over every probeable
// member, in sorted order (deterministic tests drive rounds directly),
// and reports whether the round caused a ring transition. Probes use
// the manager's shared client transport, so a transport a test injects
// through ManagerOptions.HTTP perturbs them exactly like forwards.
func (m *Manager) ProbeOnce(ctx context.Context) bool {
	m.mu.Lock()
	var targets []string
	for p, mb := range m.members {
		if p == m.self || mb.state == StateLeft {
			continue
		}
		targets = append(targets, p)
	}
	m.mu.Unlock()
	sort.Strings(targets)

	transitioned := false
	for _, peer := range targets {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := m.client.Probe(pctx, peer)
		cancel()
		if err != nil {
			m.countProbeFailure(peer)
		}
		if m.observe(peer, err == nil) {
			transitioned = true
		}
		if ctx.Err() != nil {
			break
		}
	}
	return transitioned
}

// report feeds the outcome of one forward or shard request to peer into
// its state machine. Only a missing HTTP response is a failure; any
// response, a 4xx or 5xx included, shows the peer alive (compute is
// pure, so an error status is one request's fault, not the peer's). A
// request whose caller gave up says nothing about the peer either way.
func (m *Manager) report(ctx context.Context, peer string, err error) {
	if ctx.Err() != nil {
		return
	}
	m.observe(peer, !unreachable(err))
}

// observe applies one observation to peer's state machine, reporting
// whether the ring transitioned. The transitions:
//
//	alive   --fail×suspectAfter--> suspect   (still in the ring)
//	suspect --fail×evictAfter--->  evicted   (ring transition)
//	suspect --ok----------------->  alive    (one success clears suspicion)
//	evicted --ok×rejoinAfter----->  alive    (ring transition; hysteresis)
func (m *Manager) observe(peer string, ok bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, known := m.members[peer]
	if !known || peer == m.self || mb.state == StateLeft {
		return false
	}
	prev := mb.state
	if ok {
		mb.fails = 0
		switch mb.state {
		case StateSuspect:
			mb.state = StateAlive
			mb.oks = 0
		case StateEvicted:
			mb.oks++
			if mb.oks >= rejoinAfter {
				mb.state = StateAlive
				mb.oks = 0
			}
		default:
			mb.oks = 0
		}
	} else {
		mb.oks = 0
		mb.fails++
		switch mb.state {
		case StateAlive:
			if mb.fails >= suspectAfter {
				mb.state = StateSuspect
			}
		case StateSuspect:
			if mb.fails >= evictAfter {
				mb.state = StateEvicted
			}
		}
	}
	return mb.state != prev && m.rebuildLocked(false)
}

// nextProbeDelay draws one round's sleep: DefaultProbeInterval jittered
// to [0.75, 1.25)× from the manager's own seeded stream.
func (m *Manager) nextProbeDelay() time.Duration {
	m.mu.Lock()
	u := m.jitter.Float64()
	m.mu.Unlock()
	return time.Duration(float64(DefaultProbeInterval) * (0.75 + 0.5*u))
}

// Start runs the background probe loop until ctx is canceled. Each
// round sleeps nextProbeDelay; the jitter stream is seeded by the
// instance's own URL, so a fleet started together never synchronizes
// its probe storms.
func (m *Manager) Start(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(m.nextProbeDelay()):
			}
			m.ProbeOnce(ctx)
		}
	}()
}
