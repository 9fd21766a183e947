// Package jobs is the asynchronous execution layer behind the
// service's /v1/jobs API: a bounded, persistent-across-requests store
// of long-running evaluations (sweeps, batches) whose results are
// streamed and paged instead of shipped in one synchronous response
// body.
//
// A Job moves through queued → running → done|failed|canceled. Its
// results are an append-only sequence of pre-marshaled JSON records in
// deterministic grid order: the run function emits records by grid
// index from concurrent workers, and the publisher reorders them behind
// a frontier so readers only ever observe a gap-free, in-order prefix.
// Because records are the exact bytes the synchronous endpoints would
// marshal, a streamed or paged point is byte-identical to its
// synchronous twin.
//
// A job retains every record it publishes, so pagination and stream
// replay from record 0 see the whole result set. The store does not
// bound records per job itself: the service refuses sweep grids and
// batches larger than its request caps before a job is created, which
// bounds each job's residency at the edge.
//
// The store itself is bounded to Options.MaxJobs resident jobs:
// submitting evicts the oldest terminal job to make room, and when
// every resident job is still queued or running the submit is refused
// with ErrStoreFull (the service maps it to 429 + Retry-After). At most
// two jobs run concurrently; the rest wait in FIFO order in the queued
// state. Drain cancels the queue, lets running jobs finish within a
// budget, then cancels them — the graceful-shutdown hook cmd/mbserve
// calls after the HTTP listener stops.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → one of the terminal states (done, failed,
// canceled); a queued job canceled before dispatch skips running.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrStoreFull is returned by Submit when the store holds MaxJobs
// resident jobs and none is terminal (evictable). Match with errors.Is.
var ErrStoreFull = errors.New("jobs: store full")

// ErrCanceled is the failure recorded on a job canceled while running;
// the run function's context error is folded into it. Match with
// errors.Is.
var ErrCanceled = errors.New("jobs: canceled")

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("jobs: no such job")

// DefaultMaxJobs is the resident-job bound when Options.MaxJobs is
// zero.
const DefaultMaxJobs = 64

// maxActive bounds concurrently dispatched jobs; queued jobs wait FIFO.
// Compute inside a job is additionally bounded by the service's
// admission semaphore, so this only keeps queued jobs from all camping
// in admission's wait queue.
const maxActive = 2

// Hooks receive job lifecycle events for metrics. Transition may be
// nil and must be safe for concurrent use.
type Hooks struct {
	// Transition fires on every state change with the job's operation
	// label ("sweep", "batch") and destination state.
	Transition func(op string, to State)
}

// Options configures a Store.
type Options struct {
	// MaxJobs bounds resident jobs (queued + running + terminal kept
	// for result pagination). Terminal jobs are evicted oldest-first to
	// admit new submissions. 0 means DefaultMaxJobs.
	MaxJobs int
	// Hooks receive lifecycle events for metrics.
	Hooks Hooks
}

// RunFunc executes one job's work. It must call Publisher.Started once
// compute is admitted, emit records by grid index, and return an
// optional summary (raw JSON attached to the terminal status, e.g. the
// sweep's skipped combinations) or an error. The context is canceled by
// DELETE /v1/jobs/{id}, drain, or store shutdown.
type RunFunc func(ctx context.Context, pub *Publisher) (summary []byte, err error)

// Job is one submitted evaluation. All fields are guarded by the
// owning store's mutex; read them through Status and the reader
// methods.
type Job struct {
	store *Store

	id      string
	op      string
	state   State
	created time.Time
	started time.Time
	ended   time.Time

	total     int // planned record count (estimate until OnPlan refines it)
	exact     bool
	records   [][]byte       // the gap-free in-order prefix; its length is the frontier
	pending   map[int][]byte // completed out of order, beyond the frontier
	summary   []byte
	err       error
	runErr    string
	cancel    context.CancelFunc
	updated   chan struct{} // closed+replaced on every observable change
	seq       int           // submit order, for eviction
	cancelReq bool
	run       RunFunc // set at submit, consumed at dispatch
}

// Status is a point-in-time snapshot of a job, safe to marshal.
type Status struct {
	ID    string `json:"id"`
	Op    string `json:"op"`
	State State  `json:"state"`
	// Total is the number of records the job will produce: an upper
	// bound while queued, exact once the grid is enumerated
	// (TotalExact reports which).
	Total      int    `json:"total"`
	TotalExact bool   `json:"totalExact"`
	Completed  int    `json:"completed"`
	Error      string `json:"error,omitempty"`
	CreatedAt  string `json:"createdAt"`
	StartedAt  string `json:"startedAt,omitempty"`
	EndedAt    string `json:"endedAt,omitempty"`
}

// Store owns the resident jobs and the dispatch loop. Build one with
// NewStore; it is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	opts   Options
	jobs   map[string]*Job
	order  []*Job // submit order; eviction scans oldest-first
	queue  []*Job // queued jobs awaiting dispatch, FIFO
	active int
	seq    int
	closed bool
	idle   chan struct{} // closed+replaced when active+queued may have drained
	counts map[State]int64
}

// NewStore builds a Store.
func NewStore(opts Options) *Store {
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = DefaultMaxJobs
	}
	return &Store{
		opts:   opts,
		jobs:   make(map[string]*Job),
		idle:   make(chan struct{}),
		counts: make(map[State]int64),
	}
}

// newID returns a random 16-hex-digit job id. Randomness (not a bare
// sequence) keeps ids unguessable across restarts; the sequence prefix
// keeps logs sortable.
func (s *Store) newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back
		// to the sequence alone rather than refusing jobs.
		return fmt.Sprintf("j%06d", s.seq)
	}
	return fmt.Sprintf("j%06d-%s", s.seq, hex.EncodeToString(b[:]))
}

// Submit registers a job and schedules run on the dispatch loop. total
// is the caller's record-count estimate (the admission weight source);
// the run function refines it via Publisher.SetTotal once enumeration
// is exact. Returns ErrStoreFull when no slot can be freed.
func (s *Store) Submit(op string, total int, run RunFunc) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: store is draining", ErrStoreFull)
	}
	if len(s.jobs) >= s.opts.MaxJobs && !s.evictLocked() {
		return nil, fmt.Errorf("%w: %d jobs resident, none terminal", ErrStoreFull, len(s.jobs))
	}
	s.seq++
	if total < 0 {
		total = 0
	}
	j := &Job{
		store:   s,
		id:      s.newID(),
		op:      op,
		state:   StateQueued,
		created: time.Now(),
		total:   total,
		pending: make(map[int][]byte),
		updated: make(chan struct{}),
		seq:     s.seq,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.queue = append(s.queue, j)
	s.counts[StateQueued]++
	if h := s.opts.Hooks.Transition; h != nil {
		h(op, StateQueued)
	}
	s.dispatchLocked(run, j)
	return j, nil
}

// dispatchLocked starts queued jobs while active slots are free. Each
// job runs on its own goroutine under a pprof label (job=<id>) so CPU
// profiles of a busy server attribute time to specific jobs. Only the
// job at the head of the queue is ever started — FIFO, like the
// admission queue below it.
func (s *Store) dispatchLocked(run RunFunc, submitted *Job) {
	// The run function rides on the job (set at submit); queued jobs
	// keep theirs until dispatched.
	if submitted != nil {
		submitted.run = run
	}
	for s.active < maxActive && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != StateQueued { // canceled while queued
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		if j.cancelReq {
			cancel()
		}
		s.active++
		go s.execute(ctx, j)
	}
}

// execute runs one dispatched job to a terminal state.
func (s *Store) execute(ctx context.Context, j *Job) {
	pub := &Publisher{job: j}
	var (
		summary []byte
		err     error
	)
	pprof.Do(ctx, pprof.Labels("job", j.id, "op", j.op), func(ctx context.Context) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("jobs: run panicked: %v", p)
			}
			s.finish(j, summary, err, ctx)
		}()
		summary, err = j.run(ctx, pub)
	})
}

// finish moves a job to its terminal state and releases its active
// slot.
func (s *Store) finish(j *Job, summary []byte, err error, ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	// Flush any still-pending records whose frontier predecessors
	// never completed: they stay pending (a gap must not be papered
	// over), but the maps are dropped to free memory on failure.
	to := StateDone
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil && errors.Is(err, ctx.Err()) || errors.Is(err, ErrCanceled)):
		to = StateCanceled
		j.err = fmt.Errorf("%w: %v", ErrCanceled, err)
	case err != nil:
		to = StateFailed
		j.err = err
	case j.cancelReq:
		// Cancel raced completion; the work finished, keep it.
		to = StateDone
	}
	if to != StateDone {
		j.pending = nil
	}
	j.summary = summary
	if j.err != nil {
		j.runErr = err.Error()
	}
	s.transitionLocked(j, to)
	j.ended = time.Now()
	if to == StateDone && !j.exact {
		// The run completed without refining the total (e.g. a batch
		// that knew it exactly up front): the frontier is the truth.
		j.total, j.exact = len(j.records), true
	}
	j.bumpLocked()
	s.dispatchLocked(nil, nil)
	s.signalIdleLocked()
}

// transitionLocked updates state + counters + hooks.
func (s *Store) transitionLocked(j *Job, to State) {
	if j.state == to {
		return
	}
	s.counts[j.state]--
	s.counts[to]++
	j.state = to
	if h := s.opts.Hooks.Transition; h != nil {
		h(j.op, to)
	}
}

// evictLocked removes the oldest terminal job, reporting whether a slot
// was freed.
func (s *Store) evictLocked() bool {
	for i, j := range s.order {
		if j.state.Terminal() {
			s.order = append(s.order[:i], s.order[i+1:]...)
			delete(s.jobs, j.id)
			return true
		}
	}
	return false
}

// Get returns a job by id.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns resident jobs' statuses in submit order (oldest first).
func (s *Store) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.statusLocked())
	}
	return out
}

// Cancel requests cancellation: a queued job goes straight to
// canceled; a running job's context is canceled and the run function
// decides how fast to stop. Canceling a terminal job is a no-op.
// The boolean reports whether the id exists.
func (s *Store) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	s.cancelLocked(j)
	return true
}

func (s *Store) cancelLocked(j *Job) {
	if j.state.Terminal() {
		return
	}
	j.cancelReq = true
	// A dispatched job — running, or queued-for-admission with a live
	// context — is unwound through its context so the goroutine's
	// finish() performs the (single) terminal transition. Only a job
	// that never left the dispatch queue transitions here.
	if j.cancel != nil {
		j.cancel()
		return
	}
	s.transitionLocked(j, StateCanceled)
	j.err = fmt.Errorf("%w: canceled while queued", ErrCanceled)
	j.runErr = j.err.Error()
	j.ended = time.Now()
	j.bumpLocked()
	s.signalIdleLocked()
}

// signalIdleLocked wakes Drain waiters to re-check the queue.
func (s *Store) signalIdleLocked() {
	close(s.idle)
	s.idle = make(chan struct{})
}

// Drain shuts the store down for graceful exit: new submissions are
// refused, queued jobs are canceled immediately, and running jobs get
// until ctx's deadline to finish before being canceled too. Drain
// returns when every job is terminal or, after forced cancellation,
// when the stragglers acknowledge (bounded by a short grace so a run
// function that ignores its context cannot wedge shutdown).
func (s *Store) Drain(ctx context.Context) {
	s.mu.Lock()
	s.closed = true
	for _, j := range s.order {
		if j.state == StateQueued {
			s.cancelLocked(j)
		}
	}
	s.mu.Unlock()

	if s.waitIdle(ctx) {
		return
	}
	// Budget exhausted: cancel the stragglers and give them a short
	// grace to unwind.
	s.mu.Lock()
	for _, j := range s.order {
		s.cancelLocked(j)
	}
	s.mu.Unlock()
	grace, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.waitIdle(grace)
}

// waitIdle blocks until no job is queued or running, reporting whether
// that was reached before ctx ended.
func (s *Store) waitIdle(ctx context.Context) bool {
	for {
		s.mu.Lock()
		busy := s.counts[StateQueued] > 0 || s.counts[StateRunning] > 0
		ch := s.idle
		s.mu.Unlock()
		if !busy {
			return true
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return false
		}
	}
}

// Publisher is the run function's emission handle.
type Publisher struct {
	job *Job
}

// Started marks the job running — call it once compute has been
// admitted, so queue time and run time separate in the status.
func (p *Publisher) Started() {
	j := p.job
	s := j.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == StateQueued {
		s.transitionLocked(j, StateRunning)
		j.started = time.Now()
		j.bumpLocked()
	}
}

// SetTotal replaces the record-count estimate with the exact value
// (known once the grid is enumerated).
func (p *Publisher) SetTotal(n int) {
	j := p.job
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	if n >= 0 {
		j.total, j.exact = n, true
		j.bumpLocked()
	}
}

// Emit hands the publisher record index's pre-marshaled bytes. Records
// may arrive in any order; they become observable strictly in index
// order as the frontier advances over a gap-free prefix, and every
// record is retained. Emit never blocks on readers. Emitting an index
// twice is a programming error and panics.
func (p *Publisher) Emit(index int, rec []byte) {
	j := p.job
	s := j.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if index < len(j.records) || j.pending == nil {
		if j.pending == nil {
			return // already terminal (canceled mid-flight); drop quietly
		}
		panic(fmt.Sprintf("jobs: duplicate emit for index %d (frontier %d)", index, len(j.records)))
	}
	if _, dup := j.pending[index]; dup {
		panic(fmt.Sprintf("jobs: duplicate emit for index %d", index))
	}
	j.pending[index] = rec
	advanced := false
	for {
		next, ok := j.pending[len(j.records)]
		if !ok {
			break
		}
		delete(j.pending, len(j.records))
		j.records = append(j.records, next)
		advanced = true
	}
	if advanced {
		j.bumpLocked()
	}
}

// bumpLocked publishes an observable change to blocked readers.
func (j *Job) bumpLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := Status{
		ID:         j.id,
		Op:         j.op,
		State:      j.state,
		Total:      j.total,
		TotalExact: j.exact,
		Completed:  len(j.records),
		Error:      j.runErr,
		CreatedAt:  j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.ended.IsZero() {
		st.EndedAt = j.ended.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// Err returns the terminal error (nil while non-terminal or done).
func (j *Job) Err() error {
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	return j.err
}

// Summary returns the raw summary JSON the run attached at completion.
func (j *Job) Summary() []byte {
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	return j.summary
}

// Next returns record index's bytes for a sequential reader, blocking
// until the frontier covers it, the job ends, or ctx is done. The
// boolean is false when the job ended before producing index (end of
// stream — inspect Err/Status for why); the only error is ctx's.
func (j *Job) Next(ctx context.Context, index int) ([]byte, bool, error) {
	s := j.store
	for {
		s.mu.Lock()
		switch {
		case index < len(j.records):
			rec := j.records[index]
			s.mu.Unlock()
			return rec, true, nil
		case j.state.Terminal():
			s.mu.Unlock()
			return nil, false, nil
		}
		ch := j.updated
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Page returns up to limit records starting at cursor, in grid order,
// plus the next cursor and whether more records may still appear (the
// job is live or records remain). Pages are stable under concurrent
// completion: records are append-only in deterministic grid order, so
// the same cursor always returns the same bytes.
func (j *Job) Page(cursor, limit int) (recs [][]byte, next int, more bool) {
	s := j.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if limit <= 0 {
		limit = 100
	}
	end := cursor + limit
	if end > len(j.records) {
		end = len(j.records)
	}
	if cursor < end {
		recs = j.records[cursor:end]
	}
	next = cursor + len(recs)
	// More records can still land while the job is live; once terminal,
	// the record sequence is final.
	more = !j.state.Terminal() || next < len(j.records)
	return recs, next, more
}
