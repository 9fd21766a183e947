package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multibus/internal/rng"
	"multibus/internal/sim"
)

// Membership states (DESIGN.md §16). Alive and suspect members are in
// the ring — suspicion is a grace period, not an eviction — while
// evicted and left members are out of it but stay known: evicted peers
// keep being probed (so a recovered peer rejoins after the hysteresis
// streak), left peers departed deliberately and return only when they
// announce their own join (Join).
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateEvicted = "evicted"
	StateLeft    = "left"
)

// State machine tuning. Two consecutive failed observations (probes or
// forwards that got no HTTP response) raise suspicion, two more confirm
// it into eviction, and an evicted peer must answer three consecutive
// probes before it re-enters the ring — the hysteresis that keeps a
// flapping peer from thrashing the ring on every blip.
const (
	DefaultProbeInterval = time.Second
	probeTimeout         = time.Second
	suspectAfter         = 2
	evictAfter           = 4
	rejoinAfter          = 3
)

// Snapshot is one immutable published view of the membership: a version
// stamp (monotonic per instance, bumped on every ring transition) and
// the ring built over the in-ring members. Readers load it through an
// atomic pointer and never lock — the Backend routes and the
// coordinator partitions against whatever snapshot was current when
// they started. A transition mid-flight needs no detection: whatever
// the ring did, a forward or shard that fails recomputes locally.
type Snapshot struct {
	Version uint64
	Ring    *Ring
}

// member is one known peer's lifecycle record.
type member struct {
	state string
	fails int // consecutive failed observations
	oks   int // consecutive successful observations (rejoin hysteresis)
}

// ManagerOptions configures a membership Manager.
type ManagerOptions struct {
	// Self is this instance's own base URL (always alive, always in the
	// ring). Required.
	Self string
	// Peers seeds the initial membership (Self is added implicitly; an
	// instance joining via -join starts with just itself).
	Peers []string
	// HTTP overrides the peer transport (nil = http.DefaultClient) —
	// the seam tests use to make peer calls fail.
	HTTP *http.Client
}

// Manager owns the mutable, versioned membership view: seeded from the
// static peer list, mutated by join/leave applications (the
// POST /v1/cluster/membership surface) and by the health prober, and
// published as immutable Snapshots through an atomic pointer. The
// prober and the Backend's forward outcomes feed one per-peer state
// machine, the only judge of peer health. Its Client is the one every
// peer call shares — forwards, shards, probes, and membership
// announcements ride one injectable transport.
type Manager struct {
	self   string
	client *Client

	mu      sync.Mutex
	members map[string]*member
	version uint64
	jitter  *rng.Rand // probe jitter, under mu

	snap atomic.Pointer[Snapshot]
	reg  atomic.Pointer[registryHook]
}

// NewManager builds a membership manager and publishes its initial
// snapshot (version 1).
func NewManager(opts ManagerOptions) (*Manager, error) {
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: membership needs a self URL")
	}
	m := &Manager{
		self:    opts.Self,
		client:  &Client{HTTP: opts.HTTP, Self: opts.Self},
		members: make(map[string]*member),
		// Seeded by the instance's own URL: each member of a fleet draws
		// its own jitter stream, and a restarted member draws the same one.
		jitter: sim.NewSeededRand(int64(fnv64a(opts.Self))),
	}
	m.members[opts.Self] = &member{state: StateAlive}
	for _, p := range opts.Peers {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
		if p != opts.Self {
			m.members[p] = &member{state: StateAlive}
		}
	}
	m.mu.Lock()
	m.rebuildLocked(true)
	m.mu.Unlock()
	return m, nil
}

// Client exposes the manager's peer client (the Backend shares it, so
// forwards, shards, probes, and announcements ride one transport).
func (m *Manager) Client() *Client { return m.client }

// Self returns this instance's own URL.
func (m *Manager) Self() string { return m.self }

// Snapshot returns the current published membership view. Never nil.
func (m *Manager) Snapshot() *Snapshot { return m.snap.Load() }

// Version returns the current ring version.
func (m *Manager) Version() uint64 { return m.Snapshot().Version }

// Peers returns the current ring's members, sorted.
func (m *Manager) Peers() []string { return m.Snapshot().Ring.Peers() }

// Owner returns the current ring owner of key.
func (m *Manager) Owner(key string) string { return m.Snapshot().Ring.Owner(key) }

// MemberStates returns every known member's lifecycle state, self
// included — the mbserve_membership_peers{state} view.
func (m *Manager) MemberStates() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.members))
	for p, mb := range m.members {
		out[p] = mb.state
	}
	return out
}

// rebuildLocked recomputes the ring over the in-ring member set and, if
// the set changed (or force), bumps the version and publishes a new
// snapshot. Caller holds mu; reports whether a transition happened.
func (m *Manager) rebuildLocked(force bool) bool {
	set := make([]string, 0, len(m.members))
	for p, mb := range m.members {
		if p == m.self || mb.state == StateAlive || mb.state == StateSuspect {
			set = append(set, p)
		}
	}
	sort.Strings(set)
	if !force {
		if cur := m.snap.Load(); cur != nil && equalStrings(cur.Ring.Peers(), set) {
			return false
		}
	}
	ring, err := NewRing(set, DefaultVnodes)
	if err != nil {
		// Unreachable: the set always contains self.
		return false
	}
	m.version++
	m.snap.Store(&Snapshot{Version: m.version, Ring: ring})
	if h := m.reg.Load(); h != nil {
		for _, p := range set {
			m.registerShareGauge(h, p)
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Apply mutates the membership: op is "join" or "leave", peer the
// subject. Applications are idempotent — re-applying a change reports
// changed=false. Each instance announces its own join and leave to
// every member it knows (Join, Leave), so an application is never
// passed on.
func (m *Manager) Apply(op, peer string) (version uint64, peers []string, changed bool, err error) {
	peer = strings.TrimSpace(peer)
	if peer == "" {
		return 0, nil, false, fmt.Errorf("cluster: membership %s needs a peer URL", op)
	}
	m.mu.Lock()
	switch op {
	case "join":
		changed = m.admitLocked(peer)
	case "leave":
		if mb, ok := m.members[peer]; ok && peer != m.self && mb.state != StateLeft {
			mb.state = StateLeft
			mb.fails, mb.oks = 0, 0
			changed = true
		}
	default:
		m.mu.Unlock()
		return 0, nil, false, fmt.Errorf("cluster: unknown membership op %q (want join|leave)", op)
	}
	if changed {
		m.rebuildLocked(false)
	}
	snap := m.snap.Load()
	m.mu.Unlock()
	return snap.Version, snap.Ring.Peers(), changed, nil
}

// admitLocked marks peer alive, adding it if unknown, and reports
// whether that changed anything. Caller holds mu.
func (m *Manager) admitLocked(peer string) bool {
	if peer == m.self {
		return false
	}
	mb, ok := m.members[peer]
	if !ok {
		m.members[peer] = &member{state: StateAlive}
		return true
	}
	if mb.state == StateAlive {
		return false
	}
	mb.state = StateAlive
	mb.fails, mb.oks = 0, 0
	return true
}

// Join announces this instance's arrival to every member it knows. With
// a seed (mbserve -join, whose initial view is just itself), the seed
// applies the join first and its view is adopted, so the announcement
// reaches the whole cluster the seed knows. Without one (mbserve
// -peers), the seed list is the view — which is how an instance that
// left gracefully and restarted with the same flags re-enters its
// peers' rings.
func (m *Manager) Join(ctx context.Context, seed string) error {
	if seed != "" {
		view, err := m.client.ApplyMembership(ctx, seed, "join", m.self)
		if err != nil {
			return fmt.Errorf("cluster: joining via %s: %w", seed, err)
		}
		m.mu.Lock()
		changed := false
		for _, p := range view.Peers {
			if p = strings.TrimSpace(p); p != "" && m.admitLocked(p) {
				changed = true
			}
		}
		if changed {
			m.rebuildLocked(false)
		}
		m.mu.Unlock()
	}
	m.announce(ctx, "join")
	return nil
}

// Leave announces this instance's graceful departure to every other
// in-ring member — before healthz flips to draining, so peers stop
// routing here while this instance still answers. A peer that misses
// the announcement evicts this instance through its prober.
func (m *Manager) Leave(ctx context.Context) { m.announce(ctx, "leave") }

// announce applies op for this instance on every other in-ring member,
// concurrently, one attempt each bounded by 2×probeTimeout, and returns
// once every attempt has ended. Best-effort: a member that is not up
// yet refuses at once and announces itself when it starts, and one that
// misses a leave evicts this instance through its prober.
func (m *Manager) announce(ctx context.Context, op string) {
	var wg sync.WaitGroup
	for _, p := range m.Peers() {
		if p == m.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			actx, cancel := context.WithTimeout(ctx, 2*probeTimeout)
			defer cancel()
			_, _ = m.client.ApplyMembership(actx, peer, op, m.self)
		}(p)
	}
	wg.Wait()
}
