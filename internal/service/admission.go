package service

import (
	"container/list"
	"context"
	"runtime"
	"sync"
	"time"
)

// admission is the weighted semaphore in front of compute: every flight
// leader — an analyze, a simulate, or one sweep grid point — acquires
// weight units (analyze = 1; simulations weighted by estimated work, see
// weights.go) before running, so total in-flight compute is bounded no
// matter how many requests arrive. Callers that do not fit wait in a
// bounded FIFO queue — strictly ordered, so a heavy request cannot be
// starved by a stream of light ones — and are shed with ErrOverloaded
// once the queue is full. Waiting respects the request context: a
// deadline blown in the queue returns ctx.Err(), and the abandoned slot
// is handed to the next waiter.
type admission struct {
	mu       sync.Mutex
	capacity int64
	inflight int64
	queue    *list.List // of *admitWaiter, front = oldest
	maxQueue int

	// avgHold is an EWMA of how long one admitted acquisition is held,
	// in seconds; it feeds the Retry-After hint on shed responses.
	avgHold float64
	holds   int64
}

// admitWaiter is one queued Acquire; ready closes when capacity is
// granted (admitted distinguishes grant from context abandonment).
type admitWaiter struct {
	need     int64
	ready    chan struct{}
	admitted bool
}

// newAdmission builds a semaphore with the given unit capacity and
// queue bound (maxQueue ≤ 0 means shed immediately when full).
func newAdmission(capacity int64, maxQueue int) *admission {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		capacity: capacity,
		queue:    list.New(),
		maxQueue: maxQueue,
	}
}

// clampWeight bounds a request's weight to [1, capacity]: a request
// heavier than the whole semaphore still runs (alone) instead of
// deadlocking behind capacity it can never collect.
func (a *admission) clampWeight(weight int64) int64 {
	if weight < 1 {
		return 1
	}
	if weight > a.capacity {
		return a.capacity
	}
	return weight
}

// poolSize is how many acquisitions of weight fit in the semaphore at
// once, capped at GOMAXPROCS. A worker pool of this size never waits
// behind its own members, so on an idle server it can neither queue
// for nor shed itself, even with no queue at all.
func (a *admission) poolSize(weight int64) int {
	return int(min(int64(runtime.GOMAXPROCS(0)), a.capacity/a.clampWeight(weight)))
}

// Acquire admits weight units, queuing FIFO when the semaphore is
// full. It returns the release function (idempotent), how long the
// caller waited in the queue, and an error: ErrOverloaded (as an
// *overloadedError carrying a Retry-After hint) when the queue is full,
// or ctx.Err() when the context ends before capacity is granted.
func (a *admission) Acquire(ctx context.Context, weight int64) (release func(), wait time.Duration, err error) {
	weight = a.clampWeight(weight)
	start := time.Now()
	a.mu.Lock()
	// Fast path: capacity free and nobody queued ahead (FIFO fairness —
	// a newcomer must not jump waiters even if it would fit).
	if a.queue.Len() == 0 && a.inflight+weight <= a.capacity {
		a.inflight += weight
		a.mu.Unlock()
		return a.releaseFunc(weight, start), 0, nil
	}
	if a.queue.Len() >= a.maxQueue {
		retry := a.retryAfterLocked(weight)
		a.mu.Unlock()
		return nil, 0, &overloadedError{retryAfter: retry}
	}
	w := &admitWaiter{need: weight, ready: make(chan struct{})}
	el := a.queue.PushBack(w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return a.releaseFunc(weight, time.Now()), time.Since(start), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.admitted {
			// The grant raced the cancellation: the units are ours, but
			// the request is dead. Give them straight back.
			a.releaseLocked(weight, time.Now(), time.Now())
			a.mu.Unlock()
			return nil, time.Since(start), ctx.Err()
		}
		wasFront := a.queue.Front() == el
		a.queue.Remove(el)
		if wasFront {
			// The abandoned waiter may have been the head blocking a
			// smaller one behind it.
			a.grantLocked()
		}
		a.mu.Unlock()
		return nil, time.Since(start), ctx.Err()
	}
}

// releaseFunc returns the idempotent release for one acquisition.
func (a *admission) releaseFunc(weight int64, acquiredAt time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			now := time.Now()
			a.mu.Lock()
			a.releaseLocked(weight, acquiredAt, now)
			a.mu.Unlock()
		})
	}
}

// releaseLocked returns units to the pool, folds the hold time into the
// EWMA, and wakes queued waiters that now fit.
func (a *admission) releaseLocked(weight int64, acquiredAt, now time.Time) {
	a.inflight -= weight
	held := now.Sub(acquiredAt).Seconds()
	if held < 0 {
		held = 0
	}
	if a.holds == 0 {
		a.avgHold = held
	} else {
		const alpha = 0.2
		a.avgHold += alpha * (held - a.avgHold)
	}
	a.holds++
	a.grantLocked()
}

// grantLocked admits queued waiters in strict FIFO order until the head
// no longer fits.
func (a *admission) grantLocked() {
	for a.queue.Len() > 0 {
		el := a.queue.Front()
		w := el.Value.(*admitWaiter)
		if a.inflight+w.need > a.capacity {
			return
		}
		a.inflight += w.need
		w.admitted = true
		a.queue.Remove(el)
		close(w.ready)
	}
}

// retryAfterLocked estimates how long a shed caller should back off:
// the queued plus in-flight units ahead of it, drained at the observed
// per-acquisition hold rate across the full capacity, clamped to a
// sane client-facing range.
func (a *admission) retryAfterLocked(weight int64) time.Duration {
	hold := a.avgHold
	if hold <= 0 {
		hold = 1 // no history yet; assume a second per acquisition
	}
	queued := int64(0)
	for el := a.queue.Front(); el != nil; el = el.Next() {
		queued += el.Value.(*admitWaiter).need
	}
	waves := float64(a.inflight+queued+weight) / float64(a.capacity)
	d := time.Duration(hold * waves * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// Inflight returns the admitted units right now (the
// mbserve_inflight_compute gauge).
func (a *admission) Inflight() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// Queued returns the number of waiting acquisitions.
func (a *admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queue.Len()
}
