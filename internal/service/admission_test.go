package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionFastPathAndRelease(t *testing.T) {
	a := newAdmission(4, 8)
	release, wait, err := a.Acquire(context.Background(), 3)
	if err != nil || wait != 0 {
		t.Fatalf("Acquire = (wait %v, err %v), want immediate grant", wait, err)
	}
	if got := a.Inflight(); got != 3 {
		t.Fatalf("Inflight = %d, want 3", got)
	}
	release()
	release() // idempotent: double release must not free units twice
	if got := a.Inflight(); got != 0 {
		t.Fatalf("Inflight after release = %d, want 0", got)
	}
}

func TestAdmissionClampsOversizedWeight(t *testing.T) {
	a := newAdmission(4, 8)
	// A request heavier than the whole semaphore runs alone instead of
	// deadlocking on capacity it can never collect.
	release, _, err := a.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatalf("oversized Acquire: %v", err)
	}
	defer release()
	if got := a.Inflight(); got != 4 {
		t.Fatalf("Inflight = %d, want clamped to capacity 4", got)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(1, 0) // no queue: full semaphore sheds immediately
	release, _, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, _, err = a.Acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second Acquire = %v, want ErrOverloaded", err)
	}
	var shed *overloadedError
	if !errors.As(err, &shed) || shed.retryAfter < time.Second {
		t.Fatalf("shed error carries no usable Retry-After hint: %v", err)
	}
}

func TestAdmissionQueueIsFIFO(t *testing.T) {
	a := newAdmission(1, 8)
	release, _, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, _, err := a.Acquire(context.Background(), 1)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			rel()
		}(i)
		// Serialize enqueue order so FIFO is observable.
		waitForQueued(t, a, i+1)
	}
	release()
	wg.Wait()
	close(order)
	prev := -1
	for got := range order {
		if got != prev+1 {
			t.Fatalf("waiters completed out of FIFO order: got %d after %d", got, prev)
		}
		prev = got
	}
}

func TestAdmissionWaitRespectsContext(t *testing.T) {
	a := newAdmission(1, 8)
	release, _, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err = a.Acquire(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire under expired context = %v, want DeadlineExceeded", err)
	}
	if got := a.Queued(); got != 0 {
		t.Fatalf("abandoned waiter still queued: Queued = %d", got)
	}
}

func TestAdmissionAbandonedHeadUnblocksNext(t *testing.T) {
	a := newAdmission(2, 8)
	// One unit held; the head waiter needs 2 (blocks), the waiter behind
	// it needs 1 (would fit, but FIFO holds it behind the head).
	release, _, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	headCtx, cancelHead := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() {
		_, _, err := a.Acquire(headCtx, 2)
		headErr <- err
	}()
	waitForQueued(t, a, 1)

	got := make(chan error, 1)
	go func() {
		rel, _, err := a.Acquire(context.Background(), 1)
		if err == nil {
			defer rel()
		}
		got <- err
	}()
	waitForQueued(t, a, 2)

	// Abandoning the head must immediately grant the smaller waiter —
	// no release required, just the head-of-line block disappearing.
	cancelHead()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned head returned %v", err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiter behind abandoned head: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter behind abandoned head never granted")
	}
}

func waitForQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for a.Queued() < n {
		select {
		case <-deadline:
			t.Fatalf("queue never reached %d waiters (at %d)", n, a.Queued())
		case <-time.After(100 * time.Microsecond):
		}
	}
}
