// Package cache provides the memoization layer of the serving stack: a
// size-bounded, concurrency-safe LRU with singleflight deduplication.
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
// Do is the entry point: a hit returns the cached value, a miss
// computes it exactly once even under concurrent identical requests
// (singleflight), and errors are returned to every waiter but never
// cached (a transient failure should not poison the key). Resident
// entries never age: every value is a deterministic function of its
// key, so a recompute could only reproduce the bytes already held.
// Entries leave only through LRU eviction.
//
// An entry that has been hit can also carry its encoded response and
// one raw request body that was answered from it (Attach). A raw-body
// index, kept under the same lock and evicted with the entries, lets
// Raw answer a byte-identical repeat of that body without the caller
// decoding or keying it.
package cache

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// MaxRawBody is the largest request body the raw-body index holds.
// Every single-scenario body the service documents fits; a larger body
// is still answered through its canonical key, just never by its bytes.
const MaxRawBody = 512

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
	raw      map[RawKey]*list.Element // raw body → element holding that body
	inflight map[string]*call         // keys being computed right now

	stats Stats
}

// entry is one resident key/value pair. att stays nil until the
// entry's first hit attaches its encoded response (Attach), so an entry
// that is never hit costs one pointer more than its key and value.
type entry struct {
	key string
	val any
	att *attachment
}

// attachment is what an entry's first hit attaches: the encoded
// response and at most one raw request body, indexed under rawKey.
type attachment struct {
	enc    []byte
	raw    []byte
	rawKey RawKey
}

// RawKey names one raw request body in the index: the route it was
// posted to and a hash of its bytes. Equal RawKeys only name a
// candidate; Raw compares the stored bytes in full before answering.
type RawKey struct {
	Route string
	Hash  uint64
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
	// Evictions counts entries dropped to respect the capacity bound.
	Evictions int64
	// Size is the current number of resident entries.
	Size int
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
		raw:      make(map[RawKey]*list.Element),
		inflight: make(map[string]*call),
	}, nil
}

// Outcome describes how one Do call obtained its value: Hit means
// straight from the LRU, Joined means by waiting on someone else's
// computation; a caller that computed the value itself reports neither.
// The serving layer uses Joined to observe cross-instance
// deduplication — a peer-forwarded request that joins the owner's
// in-flight computation is exactly the recompute sharding exists to
// avoid.
type Outcome struct {
	// Hit reports the value came from the LRU without waiting on any
	// computation.
	Hit bool
	// Joined reports this caller waited on another caller's in-flight
	// computation (at least once) instead of running compute itself.
	Joined bool
	// Encoded is the encoded response attached to the entry (see
	// Attach), on a hit; nil until the entry's first hit attaches one.
	Encoded []byte
}

// Do returns the value for key, computing it with compute on a miss.
// Concurrent Do calls for the same key run compute exactly once: one
// caller computes, the rest wait and share the result. out reports how
// the value was obtained (joined flights are not hits — the work was in
// progress, not done).
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
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (val any, out Outcome, err error) {
	// Each call counts exactly one of Hits/Misses, decided on the
	// first pass; re-dispatch iterations neither recount nor report a
	// hit (the caller did wait on a computation).
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			e := el.Value.(*entry)
			if attempt == 0 {
				c.stats.Hits++
				out.Hit = true
				if e.att != nil {
					out.Encoded = e.att.enc
				}
			}
			c.mu.Unlock()
			return e.val, out, nil
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
// the inflight slot is released, the result cached (an error never
// is), and done closed — even when compute panics, in which case
// waiters get ErrComputePanicked and the panic resumes unwinding
// through the leader.
func (c *Cache) runFlight(ctx context.Context, key string, fl *call, compute func() (any, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			delete(c.inflight, key)
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

// Raw returns the encoded response of the resident entry that body,
// posted under k, was attached to, if any. The stored body must equal
// body byte for byte: the hash in k only finds the candidate. A hit
// counts one Stats.Hits and refreshes the entry's recency, exactly as a
// Do hit would; a miss counts nothing, because the caller goes on to
// Do, which counts the probe once.
func (c *Cache) Raw(k RawKey, body []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.raw[k]
	if !ok {
		return nil, false
	}
	a := el.Value.(*entry).att
	if !bytes.Equal(a.raw, body) {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return a.enc, true
}

// Attach stores enc, the encoded response of key's value, on key's
// resident entry, and indexes body under k as that entry's one raw form.
// The service calls it on an entry's first hit, after body decoded
// strictly and built to key, so a miss never grows the index. body is
// copied; a nil body, one over MaxRawBody, an entry that already has a
// raw form, or a k that already names another entry indexes nothing. A
// key that is no longer resident attaches nothing: the index only ever
// points at a resident entry.
func (c *Cache) Attach(key string, enc []byte, k RawKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	if e.att == nil {
		e.att = &attachment{enc: enc}
	}
	if body == nil || len(body) > MaxRawBody || e.att.raw != nil {
		return
	}
	if _, taken := c.raw[k]; taken {
		return
	}
	e.att.raw, e.att.rawKey = bytes.Clone(body), k
	c.raw[k] = el
}

// RawLen returns the number of raw bodies in the index, at most Len().
func (c *Cache) RawLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.raw)
}

// add inserts key under the lock, evicting from the LRU tail to respect
// the capacity bound; an evicted entry takes its raw-body index slot
// with it. A key is computed by one flight at a time and is never
// resident while its flight runs, so add never finds it present.
func (c *Cache) add(key string, val any) {
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*entry)
		delete(c.items, e.key)
		if e.att != nil && e.att.raw != nil {
			delete(c.raw, e.att.rawKey)
		}
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
	return s
}
