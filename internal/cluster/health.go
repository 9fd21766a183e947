package cluster

import (
	"context"
	"sort"
	"time"

	"multibus/internal/rng"
	"multibus/internal/sim"
)

// Active health probing (DESIGN.md §16): the manager periodically GETs
// every known non-self member's /healthz and feeds the results through
// a suspect → confirm → evict state machine. Failure must accumulate
// before the ring moves (suspectAfter consecutive failures raise
// suspicion without a ring change; evictAfter confirm it and evict),
// and recovery must accumulate before it moves back (rejoinAfter
// consecutive successes re-admit an evicted peer) — hysteresis in both
// directions, so a flapping peer cannot thrash the ring on every blip.
// Left members are not probed: a deliberate
// departure returns only via an explicit join.

// newJitterRand builds the seeded jitter stream (repo-wide seed rule).
func newJitterRand(seed int64) *rng.Rand { return sim.NewSeededRand(seed) }

// ProbeOnce runs one synchronous probe round over every probeable
// member, in sorted order (deterministic tests drive rounds directly),
// and reports whether the round caused a ring transition. Probes use
// the manager's shared client transport, so the chaos peer-transport
// injector perturbs them exactly like forwards.
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
		pctx, cancel := context.WithTimeout(ctx, m.probeTimeout)
		err := m.client.Probe(pctx, peer)
		cancel()
		if err != nil {
			m.countProbeFailure(peer)
		}
		if m.observeProbe(peer, err == nil) {
			transitioned = true
		}
		if ctx.Err() != nil {
			break
		}
	}
	return transitioned
}

// observeProbe applies one probe result to peer's state machine,
// reporting whether the ring transitioned. Exposed to tests via
// ProbeOnce; the transitions:
//
//	alive   --fail×suspectAfter--> suspect   (still in the ring)
//	suspect --fail×evictAfter--->  evicted   (ring transition)
//	suspect --ok----------------->  alive    (one success clears suspicion)
//	evicted --ok×rejoinAfter----->  alive    (ring transition; hysteresis)
func (m *Manager) observeProbe(peer string, ok bool) bool {
	m.mu.Lock()
	mb, known := m.members[peer]
	if !known || peer == m.self || mb.state == StateLeft {
		m.mu.Unlock()
		return false
	}
	if ok {
		mb.fails = 0
		switch mb.state {
		case StateSuspect:
			mb.state = StateAlive
			mb.oks = 0
		case StateEvicted:
			mb.oks++
			if mb.oks >= m.rejoinAfter {
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
			if mb.fails >= m.suspectAfter {
				mb.state = StateSuspect
			}
		case StateSuspect:
			if mb.fails >= m.evictAfter {
				mb.state = StateEvicted
			}
		}
	}
	transitioned := m.rebuildLocked(false)
	m.mu.Unlock()
	return transitioned
}

// Start runs the background probe loop until ctx is canceled. Each
// round sleeps the configured interval jittered to [0.75, 1.25)× from
// the seeded stream, so a fleet started together never synchronizes its
// probe storms.
func (m *Manager) Start(ctx context.Context) {
	go func() {
		for {
			m.mu.Lock()
			u := m.jitter()
			m.mu.Unlock()
			d := time.Duration(float64(m.probeInterval) * (0.75 + 0.5*u))
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
			m.ProbeOnce(ctx)
		}
	}()
}
