package service

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit: closed (normal),
// half-open (probing after cooldown), open (fast-failing). The numeric
// values are the mbserve_breaker_state gauge encoding.
type breakerState int

const (
	breakerClosed   breakerState = 0
	breakerHalfOpen breakerState = 1
	breakerOpen     breakerState = 2
)

func (s breakerState) String() string {
	switch s {
	case breakerHalfOpen:
		return "half_open"
	case breakerOpen:
		return "open"
	default:
		return "closed"
	}
}

// breaker is a per-route circuit breaker: threshold consecutive compute
// failures trip it open, open fast-fails for cooldown, then a single
// half-open probe decides — success closes the circuit, failure re-opens
// it for another cooldown. Tripping converts a failing backend's
// timeout-per-request cost into an immediate circuit_open (cache hits
// never reach the breaker, so resident keys keep answering).
type breaker struct {
	threshold    int // ≤ 0 disables the breaker entirely
	cooldown     time.Duration
	onTransition func(from, to breakerState)

	mu          sync.Mutex
	now         func() time.Time // injectable for tests
	state       breakerState
	consecutive int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, onTransition func(from, to breakerState)) *breaker {
	return &breaker{
		threshold:    threshold,
		cooldown:     cooldown,
		onTransition: onTransition,
		now:          time.Now,
	}
}

// Allow reports whether a computation may proceed. Open circuits
// fast-fail with the remaining cooldown as a Retry-After hint; once the
// cooldown elapses the circuit moves to half-open and admits exactly
// one probe at a time.
func (b *breaker) Allow() (ok bool, retryAfter time.Duration) {
	if b.threshold <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		remaining := b.cooldown - b.now().Sub(b.openedAt)
		if remaining > 0 {
			return false, remaining
		}
		b.transitionLocked(breakerHalfOpen)
		b.probing = true
		return true, 0
	default: // half-open
		if b.probing {
			return false, b.cooldown
		}
		b.probing = true
		return true, 0
	}
}

// Success records a successful computation: the failure streak resets
// and a non-closed circuit closes.
func (b *breaker) Success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.probing = false
	if b.state != breakerClosed {
		b.transitionLocked(breakerClosed)
	}
}

// Failure records a genuine compute failure (callers filter out sheds,
// open-circuit short-circuits, and client cancellations first — see
// breakerFailure). A half-open probe failure re-opens immediately; a
// closed circuit opens once the streak reaches the threshold.
func (b *breaker) Failure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	b.probing = false
	switch {
	case b.state == breakerHalfOpen:
		b.openedAt = b.now()
		b.transitionLocked(breakerOpen)
	case b.state == breakerClosed && b.consecutive >= b.threshold:
		b.openedAt = b.now()
		b.transitionLocked(breakerOpen)
	}
}

// CancelProbe releases the half-open probe slot when the probe's
// outcome says nothing about the backend (it was shed by admission, or
// the client hung up): the circuit stays half-open and the next Allow
// may probe again. Without this a shed probe would wedge the circuit
// half-open forever.
func (b *breaker) CancelProbe() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State returns the current state (the gauge reads it at scrape time).
func (b *breaker) State() breakerState {
	if b.threshold <= 0 {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transitionLocked flips the state and fires the transition hook (the
// metrics counter) while holding the lock; the hook must not call back
// into the breaker.
func (b *breaker) transitionLocked(to breakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}
