package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustNew(t *testing.T, capacity int) *Cache {
	t.Helper()
	c, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := New(capacity); !errors.Is(err, ErrBadCapacity) {
			t.Errorf("New(%d) = %v, want ErrBadCapacity", capacity, err)
		}
	}
}

func TestDoHitMiss(t *testing.T) {
	c := mustNew(t, 4)
	ctx := context.Background()
	calls := 0
	compute := func() (any, error) { calls++; return 42, nil }

	v, out, err := c.Do(ctx, "k", compute)
	if err != nil || out.Hit || v.(int) != 42 {
		t.Fatalf("cold Do = (%v, %+v, %v), want (42, miss, nil)", v, out, err)
	}
	v, out, err = c.Do(ctx, "k", compute)
	if err != nil || !out.Hit || v.(int) != 42 {
		t.Fatalf("warm Do = (%v, %+v, %v), want (42, hit, nil)", v, out, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, 2)
	ctx := context.Background()
	put := func(k string) {
		t.Helper()
		if _, _, err := c.Do(ctx, k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if _, ok := c.Get("a"); !ok { // touch a → b is now least recent
		t.Fatal("a missing before eviction")
	}
	put("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order not respected")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Size != 2 {
		t.Errorf("stats = %+v, want 1 eviction / size 2", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := mustNew(t, 4)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.Do(ctx, "k", func() (any, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	v, _, err := c.Do(ctx, "k", func() (any, error) { calls++; return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("Do after error = (%v, %v), want (7, nil)", v, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
}

func TestSingleflightComputesOnce(t *testing.T) {
	c := mustNew(t, 4)
	const waiters = 32
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	results := make([]any, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Do(context.Background(), "k", func() (any, error) {
				once.Do(func() { close(started) })
				computes.Add(1)
				<-release // hold every concurrent caller in the same flight
				return "shared", nil
			})
		}(i)
	}
	<-started
	// Give the remaining goroutines a moment to pile onto the flight.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under %d concurrent callers, want exactly 1", n, waiters)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || results[i].(string) != "shared" {
			t.Fatalf("waiter %d got (%v, %v), want (shared, nil)", i, results[i], errs[i])
		}
	}
	s := c.Stats()
	if s.SharedFlights != waiters-1 {
		t.Errorf("SharedFlights = %d, want %d", s.SharedFlights, waiters-1)
	}
}

func TestDoContextCancelsWaitNotComputation(t *testing.T) {
	c := mustNew(t, 4)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (any, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (any, error) {
			t.Error("second compute ran; singleflight should have joined the flight")
			return nil, nil
		})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	close(release) // the original computation still completes and lands
	deadline := time.After(time.Second)
	for {
		if _, ok := c.Get("k"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("computation result never cached after waiter cancellation")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestWaiterSurvivesLeaderCancellation is the regression test for the
// singleflight context bug: a leader whose own request context is
// canceled used to hand context.Canceled to every healthy waiter of
// that flight. Waiters must instead re-dispatch and receive a computed
// value.
func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	c := mustNew(t, 4)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func() (any, error) {
			close(entered)
			<-leaderCtx.Done() // the computation itself dies with the leader
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-entered

	// A healthy waiter joins the leader's flight before the cancel.
	type result struct {
		val any
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func() (any, error) {
			return "recomputed", nil
		})
		waiter <- result{v, err}
	}()
	deadline := time.After(5 * time.Second)
	for c.Stats().SharedFlights == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never joined the flight")
		case <-time.After(time.Millisecond):
		}
	}

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	res := <-waiter
	if res.err != nil {
		t.Fatalf("healthy waiter inherited the leader's failure: %v", res.err)
	}
	if res.val.(string) != "recomputed" {
		t.Fatalf("waiter value = %v, want recomputed", res.val)
	}
	// The re-dispatched result is cached for the next request.
	if v, ok := c.Get("k"); !ok || v.(string) != "recomputed" {
		t.Errorf("re-dispatched value not cached: (%v, %v)", v, ok)
	}
}

// TestLeaderDeadlineDoesNotPoisonWaiters: same detachment semantics for
// a leader that timed out rather than being canceled.
func TestLeaderDeadlineDoesNotPoisonWaiters(t *testing.T) {
	c := mustNew(t, 4)
	leaderCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Do(leaderCtx, "k", func() (any, error) {
			close(entered)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
	}()
	<-entered
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) { return 1, nil })
		waiterDone <- err
	}()
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter after leader deadline got %v, want nil", err)
	}
	<-done
}

// TestComputeOwnErrorStillSharedWithWaiters: a genuine compute failure
// (not attributable to the leader's context) is still handed to every
// waiter and never retried — the pre-existing semantics.
func TestComputeOwnErrorStillSharedWithWaiters(t *testing.T) {
	c := mustNew(t, 4)
	boom := errors.New("boom")
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) {
			close(entered)
			<-release
			return nil, boom
		})
		leaderDone <- err
	}()
	<-entered
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) {
			t.Error("waiter recomputed a non-context failure")
			return nil, nil
		})
		waiterDone <- err
	}()
	deadline := time.After(5 * time.Second)
	for c.Stats().SharedFlights == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never joined the flight")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	if err := <-waiterDone; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want boom", err)
	}
}

// TestGetCountsMisses pins the Stats semantics every dashboard now
// displays: lookup misses count, so Hits/(Hits+Misses) is a real hit
// rate.
func TestGetCountsMisses(t *testing.T) {
	c := mustNew(t, 4)
	if _, ok := c.Get("absent"); ok {
		t.Fatal("empty cache returned a value")
	}
	if _, _, err := c.Do(context.Background(), "k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); !ok {
		t.Fatal("resident key missing")
	}
	s := c.Stats()
	// Get(absent)=miss, Do(k)=miss, Get(k)=hit.
	if s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 2", s.Hits, s.Misses)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	// Hammer a small cache from many goroutines across a keyspace larger
	// than the capacity; run under -race this checks the locking.
	c := mustNew(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%24)
				v, _, err := c.Do(context.Background(), k, func() (any, error) { return k, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != k {
					t.Errorf("key %s returned value %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Errorf("cache holds %d entries, capacity 8", n)
	}
}

func TestKeyCanonicality(t *testing.T) {
	if AnalyzeKey(1, 2, 0.5) != AnalyzeKey(1, 2, 0.5) {
		t.Error("equal analyze parameters produced different keys")
	}
	distinct := []string{
		AnalyzeKey(1, 2, 0.5),
		AnalyzeKey(2, 2, 0.5),
		AnalyzeKey(1, 3, 0.5),
		AnalyzeKey(1, 2, 0.25),
		SimulateKey(1, 2, 0.5, SimParams{Cycles: 1000, Seed: 1}),
		SimulateKey(1, 2, 0.5, SimParams{Cycles: 1000, Seed: 2}),
		SimulateKey(1, 2, 0.5, SimParams{Cycles: 1000, Seed: 1, Resubmit: true}),
		SweepPointKey("full", 1, 2, 0.5, false, 0, 1),
		SweepPointKey("crossbar", 1, 2, 0.5, false, 0, 1),
		SweepPointKey("full", 1, 2, 0.5, true, 20000, 1),
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between cases %d and %d: %q", prev, i, k)
		}
		seen[k] = i
	}
}

// TestPanickingComputeReleasesWaiters: a panic inside compute must not
// strand the flight's waiters — they get ErrComputePanicked, the leader
// re-panics up its own stack, and the key stays usable.
func TestPanickingComputeReleasesWaiters(t *testing.T) {
	c := mustNew(t, 4)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _, _ = c.Do(context.Background(), "k", func() (any, error) {
			close(entered)
			<-release
			panic("kaboom")
		})
	}()
	<-entered

	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) {
			t.Error("waiter recomputed while the panicking flight was active")
			return nil, nil
		})
		waiterErr <- err
	}()
	deadline := time.After(5 * time.Second)
	for c.Stats().SharedFlights == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never joined the flight")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)

	if err := <-waiterErr; !errors.Is(err, ErrComputePanicked) {
		t.Fatalf("waiter got %v, want ErrComputePanicked", err)
	}
	if r := <-leaderPanic; r != "kaboom" {
		t.Fatalf("leader recovered %v, want the original panic value", r)
	}
	// Nothing cached, key not poisoned: the next Do computes normally.
	v, _, err := c.Do(context.Background(), "k", func() (any, error) { return "fine", nil })
	if err != nil || v.(string) != "fine" {
		t.Fatalf("Do after panic = (%v, %v), want (fine, nil)", v, err)
	}
}

// TestEvictionNeverStarvesInflightWaiters is the LRU-vs-singleflight
// race test: concurrent Do calls on distinct keys exceeding capacity
// churn the LRU with evictions while waiters are joining flights.
// Every caller must receive the value its key computes — a waiter's
// result comes from the flight, never from an entry an eviction could
// snatch away. Run under -race (make race covers internal/cache).
func TestEvictionNeverStarvesInflightWaiters(t *testing.T) {
	c := mustNew(t, 2) // far smaller than the live keyspace
	const (
		goroutines = 16
		rounds     = 50
		keyspace   = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k%d", (g*rounds+i)%keyspace)
				v, _, err := c.Do(context.Background(), k, func() (any, error) {
					// Hold the flight open long enough for waiters to
					// join and for other keys to evict through the LRU.
					time.Sleep(100 * time.Microsecond)
					return "value-" + k, nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", k, err)
					return
				}
				if v.(string) != "value-"+k {
					t.Errorf("Do(%s) returned %v — waiter received another key's value", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 2 {
		t.Errorf("cache grew to %d entries, capacity 2", n)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Error("test never evicted; increase churn (keyspace must exceed capacity)")
	}
}
