// Package cache provides the memoization layer of the serving stack: a
// size-bounded, concurrency-safe LRU with singleflight deduplication
// and stale-while-revalidate degradation hooks.
//
// Interconnect-evaluation traffic is heavily repetitive — capacity
// planners and design explorers hammer the same (topology, model, r)
// points — so the service and the sweep engine put this cache in front
// of the analytic solver and the simulator. Keys are canonical strings
// built from structural fingerprints (topology.Network.Fingerprint,
// hrm fingerprints) plus the exact bit patterns of the numeric
// parameters; see keys.go. Values are immutable result objects shared
// by reference between all readers, so callers must never mutate a
// cached value.
//
// Do is the primary entry point: a hit returns the cached value, a miss
// computes it exactly once even under concurrent identical requests
// (singleflight), and errors are returned to every waiter but never
// cached (a transient failure should not poison the key).
//
// The degradation surface is three calls the serving layer composes
// into stale-while-revalidate (DESIGN.md §11): DoFresh is Do with a
// freshness horizon — entries older than freshFor are revalidated
// through compute instead of served, but stay resident so a failed
// revalidation leaves the old value available; Stale probes for that
// within-TTL leftover after a compute failure or an admission shed; and
// Refresh re-dispatches a computation in the background so a stale
// answer served now can be fresh for the next caller. Every resident
// entry carries a generation counter (bumped on each successful
// (re)compute) and a timestamp, so tests can prove a stale answer is
// the exact bytes of its fresh original and observe a refresh landing.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBadCapacity is returned by New for non-positive capacities.
var ErrBadCapacity = errors.New("cache: capacity must be ≥ 1")

// ErrComputePanicked is the error every waiter of a flight receives
// when the flight's compute panicked. The panicking leader re-panics
// (its own stack owns the bug); waiters get this sentinel instead of
// blocking forever on a flight that can no longer complete.
var ErrComputePanicked = errors.New("cache: compute panicked")

// Cache is a concurrency-safe LRU with singleflight computation. The
// zero value is not usable; build one with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key → element whose Value is *entry
	inflight map[string]*call         // keys being computed right now
	now      func() time.Time         // injectable clock (tests age entries)

	stats Stats
}

// entry is one resident key/value pair. gen counts successful
// (re)computations of the key — 1 on first insert, +1 per replacement —
// and at is when the current value landed.
type entry struct {
	key string
	val any
	gen uint64
	at  time.Time
}

// call is one in-flight computation; waiters block on done. retry is
// set (before done closes) when the leader failed because of its *own*
// context: that failure must not be inherited by healthy waiters, who
// re-dispatch instead.
type call struct {
	done  chan struct{}
	val   any
	err   error
	retry bool
}

// Stats is a snapshot of the cache's counters. All counters are
// cumulative since New.
type Stats struct {
	// Hits counts Do/Get calls answered from the LRU.
	Hits int64
	// Misses counts Do calls that ran (or joined) a computation plus
	// Get lookups that found nothing; Hits+Misses is the total probe
	// count, so hit rate is Hits/(Hits+Misses).
	Misses int64
	// SharedFlights counts Do calls that joined another caller's
	// in-flight computation instead of starting their own — the requests
	// singleflight saved.
	SharedFlights int64
	// Revalidations counts DoFresh calls that found a resident entry
	// older than the freshness horizon and recomputed it (also counted
	// in Misses — the caller waited on a computation).
	Revalidations int64
	// StaleHits counts Stale probes that served a resident entry — the
	// degraded answers handed out when compute failed or was shed.
	StaleHits int64
	// Refreshes counts background computations dispatched by Refresh.
	Refreshes int64
	// Evictions counts entries dropped to respect the capacity bound.
	Evictions int64
	// Errors counts computations that returned an error (never cached),
	// including computations that panicked.
	Errors int64
	// Size is the current number of resident entries.
	Size int
	// Capacity is the configured bound.
	Capacity int
}

// New returns an empty cache bounded to capacity entries.
func New(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacity)
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
		now:      time.Now,
	}, nil
}

// Do returns the value for key, computing it with compute on a miss.
// Concurrent Do calls for the same key run compute exactly once: one
// caller computes, the rest wait and share the result. hit reports
// whether the value came from the LRU without waiting on any
// computation (joined flights count as misses — the work was in
// progress, not done). Resident entries never expire under Do; DoFresh
// adds the freshness horizon.
//
// compute runs without the cache lock held and always runs to
// completion once started — ctx cancels this caller's wait, not the
// shared computation, so a slow result still lands in the cache for the
// next request. A compute error is handed to every waiter of that
// flight and nothing is cached — with one exception: a flight whose
// leader failed because its *own* context was canceled (or timed out)
// is re-dispatched, not inherited. A healthy waiter joining such a
// flight loops back, re-checks the cache, and becomes the next leader
// under its own context instead of receiving the leader's
// context.Canceled. Without this, one impatient client could turn
// every concurrent identical request into a spurious failure.
//
// A compute that panics re-panics in the leader (whose stack owns the
// bug — the service's recovery middleware turns it into a 500) after
// completing the flight, so waiters receive ErrComputePanicked instead
// of blocking forever.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (val any, hit bool, err error) {
	return c.DoFresh(ctx, key, 0, compute)
}

// Outcome describes how one Do/DoFresh call obtained its value, beyond
// the boolean hit: Joined distinguishes "waited on someone else's
// computation" from "computed it myself", which both count as misses.
// The serving layer uses it to observe cross-instance deduplication — a
// peer-forwarded request that joins the owner's in-flight computation
// is exactly the recompute sharding exists to avoid.
type Outcome struct {
	// Hit reports the value came from the LRU without waiting on any
	// computation.
	Hit bool
	// Joined reports this caller waited on another caller's in-flight
	// computation (at least once) instead of running compute itself.
	Joined bool
}

// DoFresh is Do with a freshness horizon: a resident entry older than
// freshFor is not served but revalidated — compute runs (singleflight)
// and, on success, replaces the entry with a bumped generation. On
// failure the aged entry stays resident, so Stale can serve it as a
// degraded answer. freshFor ≤ 0 means entries never age (plain Do).
func (c *Cache) DoFresh(ctx context.Context, key string, freshFor time.Duration, compute func() (any, error)) (val any, hit bool, err error) {
	v, out, err := c.DoFreshOutcome(ctx, key, freshFor, compute)
	return v, out.Hit, err
}

// DoFreshOutcome is DoFresh reporting the full Outcome. Semantics are
// identical; the extra detail is how the caller obtained the value.
func (c *Cache) DoFreshOutcome(ctx context.Context, key string, freshFor time.Duration, compute func() (any, error)) (val any, out Outcome, err error) {
	// Each call counts exactly one of Hits/Misses, decided on the
	// first pass; re-dispatch iterations neither recount nor report a
	// hit (the caller did wait on a computation).
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			e := el.Value.(*entry)
			if freshFor <= 0 || c.now().Sub(e.at) <= freshFor {
				c.ll.MoveToFront(el)
				v := e.val
				if attempt == 0 {
					c.stats.Hits++
				}
				c.mu.Unlock()
				out.Hit = attempt == 0
				return v, out, nil
			}
			// Aged past the horizon: revalidate. The entry stays resident
			// until a successful compute replaces it.
			if attempt == 0 {
				c.stats.Revalidations++
			}
		}
		if attempt == 0 {
			c.stats.Misses++
		}
		if fl, ok := c.inflight[key]; ok {
			if attempt == 0 {
				c.stats.SharedFlights++
			}
			out.Joined = true
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.retry {
					continue // leader-context failure; re-dispatch
				}
				return fl.val, out, fl.err
			case <-ctx.Done():
				return nil, out, ctx.Err()
			}
		}
		fl := &call{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		c.runFlight(ctx, key, fl, compute)
		return fl.val, out, fl.err
	}
}

// runFlight executes one flight's compute and completes the flight:
// the inflight slot is released, the result cached (or the error
// counted), and done closed — even when compute panics, in which case
// waiters get ErrComputePanicked and the panic resumes unwinding
// through the leader.
func (c *Cache) runFlight(ctx context.Context, key string, fl *call, compute func() (any, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			delete(c.inflight, key)
			c.stats.Errors++
			c.mu.Unlock()
			fl.val, fl.err = nil, fmt.Errorf("%w: %v", ErrComputePanicked, r)
			close(fl.done)
			panic(r)
		}
	}()
	fl.val, fl.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err != nil {
		c.stats.Errors++
		// A failure caused by this leader's own context is private to
		// the leader; mark the flight so waiters re-dispatch.
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(fl.err, ctxErr) {
			fl.retry = true
		}
	} else {
		c.add(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
}

// StaleValue is a degraded answer served by Stale: the resident value,
// how long ago it was computed, and its generation.
type StaleValue struct {
	Value any
	Age   time.Duration
	Gen   uint64
}

// Stale returns the resident entry for key regardless of freshness, as
// long as its age is within staleFor (staleFor ≤ 0 means any age).
// It is the degradation probe: after a compute failure or an admission
// shed, the serving layer trades freshness for availability and hands
// out the last good answer — which, evaluation being deterministic, is
// byte-identical to what a successful compute would produce. The probe
// touches LRU order (an entry being leaned on during an incident should
// not be the one evicted) and counts Stats.StaleHits, not Hits.
func (c *Cache) Stale(key string, staleFor time.Duration) (StaleValue, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return StaleValue{}, false
	}
	e := el.Value.(*entry)
	age := c.now().Sub(e.at)
	if staleFor > 0 && age > staleFor {
		return StaleValue{}, false
	}
	c.ll.MoveToFront(el)
	c.stats.StaleHits++
	return StaleValue{Value: e.val, Age: age, Gen: e.gen}, true
}

// Refresh dispatches a background computation for key unless a flight
// is already active, reporting whether it dispatched. The refresh is a
// normal flight: concurrent Do calls for the key join it, a success
// replaces the resident entry (generation bumped), an error is counted
// and cached nothing. A panicking refresh completes the flight with
// ErrComputePanicked and is swallowed — there is no caller stack above
// a detached goroutine to hand the panic to.
func (c *Cache) Refresh(key string, compute func() (any, error)) bool {
	c.mu.Lock()
	if _, busy := c.inflight[key]; busy {
		c.mu.Unlock()
		return false
	}
	fl := &call{done: make(chan struct{})}
	c.inflight[key] = fl
	c.stats.Refreshes++
	c.mu.Unlock()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				c.mu.Lock()
				delete(c.inflight, key)
				c.stats.Errors++
				c.mu.Unlock()
				fl.val, fl.err = nil, fmt.Errorf("%w: %v", ErrComputePanicked, r)
				close(fl.done)
			}
		}()
		// The result lands on the flight as well as in the LRU: Do calls
		// that joined this refresh while it ran receive the value (or
		// error) like any other waiters.
		fl.val, fl.err = compute()
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err != nil {
			c.stats.Errors++
		} else {
			c.add(key, fl.val)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	return true
}

// Get returns the cached value for key without computing anything.
// Both outcomes count: a hit increments Stats.Hits, a lookup miss
// increments Stats.Misses, so the hit rate dashboards derive from the
// two counters reflects every probe, not just the successful ones.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).val, true
}

// add inserts or refreshes key under the lock, evicting from the LRU
// tail to respect the capacity bound.
func (c *Cache) add(key string, val any) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		e.val = val
		e.gen++
		e.at = c.now()
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, gen: 1, at: c.now()})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.ll.Len()
	s.Capacity = c.capacity
	return s
}
