package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collect drains a job's record stream from index 0 until end-of-job,
// returning the records in order.
func collect(t *testing.T, j *Job) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out [][]byte
	for i := 0; ; i++ {
		rec, ok, err := j.Next(ctx, i)
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job never reached %s (now %s)", want, j.Status().State)
}

// fillSlots occupies every dispatch slot with a running job that blocks
// until release is closed (or its context is canceled), so the next
// submission queues.
func fillSlots(t *testing.T, s *Store, release <-chan struct{}) []*Job {
	t.Helper()
	running := make([]*Job, maxActive)
	for i := range running {
		j, err := s.Submit("sweep", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
			select {
			case <-release:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateRunning)
		running[i] = j
	}
	return running
}

// TestFrontierReordersOutOfOrderEmits pins the core ordering property:
// workers emit by grid index in arbitrary completion order, and a
// reader attached while they do observes every record, in order, as the
// gap-free prefix grows. The emitter hands over each pair of records
// highest index first and waits for the reader to consume both, so
// every Next call races a live, out-of-order emit.
func TestFrontierReordersOutOfOrderEmits(t *testing.T) {
	const total = 64
	s := NewStore(Options{})
	consumed := make(chan struct{})
	j, err := s.Submit("sweep", total, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		pub.SetTotal(total)
		for i := 0; i < total; i += 2 {
			pub.Emit(i+1, []byte(fmt.Sprintf(`{"i":%d}`, i+1)))
			pub.Emit(i, []byte(fmt.Sprintf(`{"i":%d}`, i)))
			select {
			case <-consumed:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []byte(`{"skipped":[]}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < total; i++ {
		rec, ok, nerr := j.Next(ctx, i)
		if nerr != nil || !ok {
			t.Fatalf("Next(%d) = ok=%v err=%v", i, ok, nerr)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(rec) != want {
			t.Fatalf("record %d = %s, want %s", i, rec, want)
		}
		if i%2 == 1 {
			consumed <- struct{}{}
		}
	}
	if recs := collect(t, j); len(recs) != total {
		t.Fatalf("replay from 0 got %d records, want %d", len(recs), total)
	}
	waitState(t, j, StateDone)
	st := j.Status()
	if st.Completed != total || st.Total != total || !st.TotalExact {
		t.Errorf("status = %+v", st)
	}
	if string(j.Summary()) != `{"skipped":[]}` {
		t.Errorf("summary = %s", j.Summary())
	}
}

// TestPageStableUnderConcurrentCompletion: the same cursor returns the
// same bytes no matter how many records land concurrently.
func TestPageStableUnderConcurrentCompletion(t *testing.T) {
	const total = 500
	s := NewStore(Options{})
	release := make(chan struct{})
	j, err := s.Submit("sweep", total, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		pub.SetTotal(total)
		<-release
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < total; i += 4 {
					pub.Emit(i, []byte(fmt.Sprintf(`{"i":%d}`, i)))
				}
			}(w)
		}
		wg.Wait()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	// Snapshot page [0,10) repeatedly while the job completes points
	// concurrently; every non-empty read of the same cursor must agree
	// byte for byte and be gap-free from the cursor.
	var first [][]byte
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		recs, next, _ := j.Page(0, 10)
		if len(recs) > 0 {
			if first == nil && len(recs) == 10 {
				first = append(first, recs...)
			}
			for i, r := range recs {
				if want := fmt.Sprintf(`{"i":%d}`, i); string(r) != want {
					t.Fatalf("page record %d = %s, want %s (next=%d)", i, r, want, next)
				}
			}
		}
		if j.Status().State == StateDone && first != nil {
			break
		}
	}
	if first == nil {
		t.Fatal("never observed a full first page")
	}
	recs, next, more := j.Page(0, 10)
	for i := range recs {
		if string(recs[i]) != string(first[i]) {
			t.Errorf("page drifted at %d: %s vs %s", i, recs[i], first[i])
		}
	}
	if next != 10 {
		t.Errorf("next = %d, want 10", next)
	}
	if !more && j.Status().Completed <= 10 {
		t.Error("more = false with records remaining")
	}
}

// TestCancelRunning cancels a ctx-respecting run and expects the
// canceled terminal state.
func TestCancelRunning(t *testing.T) {
	s := NewStore(Options{})
	started := make(chan struct{})
	j, err := s.Submit("sweep", 10, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !s.Cancel(j.ID()) {
		t.Fatal("Cancel: job not found")
	}
	waitState(t, j, StateCanceled)
	if !errors.Is(j.Err(), ErrCanceled) {
		t.Errorf("Err() = %v, want ErrCanceled", j.Err())
	}
	// End-of-stream, not an error, for readers.
	rec, ok, err := j.Next(context.Background(), 0)
	if rec != nil || ok || err != nil {
		t.Errorf("Next after cancel = (%v, %v, %v), want (nil, false, nil)", rec, ok, err)
	}
}

// TestCancelQueuedBeforeDispatch: with every active slot occupied, a
// queued job cancels immediately without ever running.
func TestCancelQueuedBeforeDispatch(t *testing.T) {
	s := NewStore(Options{})
	block := make(chan struct{})
	running := fillSlots(t, s, block)
	ran := false
	queued, err := s.Submit("sweep", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.Status().State; st != StateQueued {
		t.Fatalf("second job state = %s, want queued", st)
	}
	s.Cancel(queued.ID())
	waitState(t, queued, StateCanceled)
	close(block)
	for _, j := range running {
		waitState(t, j, StateDone)
	}
	if ran {
		t.Error("canceled queued job still ran")
	}
}

// TestStoreBoundAndEviction: the resident bound refuses submissions
// when nothing is evictable and evicts oldest terminal jobs otherwise.
func TestStoreBoundAndEviction(t *testing.T) {
	s := NewStore(Options{MaxJobs: 2})
	block := make(chan struct{})
	slow := func(ctx context.Context, pub *Publisher) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, nil
	}
	j1, err := s.Submit("sweep", 1, slow)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit("sweep", 1, slow)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateRunning)
	waitState(t, j2, StateRunning)
	if _, err := s.Submit("sweep", 1, slow); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("third submit = %v, want ErrStoreFull", err)
	}
	close(block)
	waitState(t, j1, StateDone)
	waitState(t, j2, StateDone)
	// j1 is the oldest terminal job → evicted → a new submission fits.
	j3, err := s.Submit("sweep", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatalf("submit after eviction: %v", err)
	}
	if _, ok := s.Get(j1.ID()); ok {
		t.Error("evicted job still resident")
	}
	waitState(t, j3, StateDone)
}

// TestDrainCancelsQueuedAndWaitsRunning.
func TestDrainCancelsQueuedAndWaitsRunning(t *testing.T) {
	s := NewStore(Options{})
	finish := make(chan struct{})
	running := fillSlots(t, s, finish)
	queued, err := s.Submit("sweep", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		close(finish) // the running jobs complete within the drain budget
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)

	for _, j := range running {
		if st := j.Status().State; st != StateDone {
			t.Errorf("running job drained to %s, want done", st)
		}
	}
	if st := queued.Status().State; st != StateCanceled {
		t.Errorf("queued job drained to %s, want canceled", st)
	}
	if _, err := s.Submit("sweep", 1, nil); !errors.Is(err, ErrStoreFull) {
		t.Errorf("submit after drain = %v, want ErrStoreFull", err)
	}
}

// TestDrainForceCancelsStragglers: a running job that outlives the
// budget is context-canceled.
func TestDrainForceCancelsStragglers(t *testing.T) {
	s := NewStore(Options{})
	j, err := s.Submit("sweep", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx)
	if st := j.Status().State; st != StateCanceled {
		t.Errorf("straggler state = %s, want canceled", st)
	}
}

// TestFailedRunRecordsError.
func TestFailedRunRecordsError(t *testing.T) {
	s := NewStore(Options{})
	boom := errors.New("boom")
	j, err := s.Submit("batch", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if !errors.Is(j.Err(), boom) {
		t.Errorf("Err() = %v, want boom", j.Err())
	}
	if st := j.Status(); st.Error == "" {
		t.Error("status carries no error message")
	}
}

// TestRunPanicBecomesFailure: a panicking run must not take the
// process down or leak the active slot. Every other slot is held by a
// blocking job, so the follow-up job can only run in the slot the panic
// released.
func TestRunPanicBecomesFailure(t *testing.T) {
	s := NewStore(Options{})
	block := make(chan struct{})
	defer close(block)
	running := fillSlots(t, s, block)
	// Free one slot for the panicking run.
	s.Cancel(running[0].ID())
	waitState(t, running[0], StateCanceled)
	j, err := s.Submit("sweep", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	// The slot must be free again.
	j2, err := s.Submit("sweep", 1, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, StateDone)
}

// TestHooksAndStats: the transition hook fires once per state change,
// and the store's listing reports the finished job resident and done.
func TestHooksAndStats(t *testing.T) {
	var (
		mu          sync.Mutex
		transitions = map[State]int{}
	)
	s := NewStore(Options{
		Hooks: Hooks{
			Transition: func(op string, to State) {
				mu.Lock()
				transitions[to]++
				mu.Unlock()
			},
		},
	})
	j, err := s.Submit("sweep", 3, func(ctx context.Context, pub *Publisher) ([]byte, error) {
		pub.SetTotal(3)
		for i := 0; i < 3; i++ {
			pub.Emit(i, []byte(`{}`))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if all := s.Jobs(); len(all) != 1 || all[0].State != StateDone || all[0].Completed != 3 {
		t.Errorf("jobs = %+v, want one done job with 3 records", all)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []State{StateQueued, StateRunning, StateDone} {
		if transitions[want] != 1 {
			t.Errorf("transition to %s fired %d times, want 1", want, transitions[want])
		}
	}
}
