package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"multibus/internal/jobs"
	"multibus/internal/sweep"
)

// The async job surface (DESIGN.md §13): POST /v1/jobs submits a sweep
// or batch for background evaluation; status, paged results, a live
// NDJSON/SSE stream, and cancellation hang off /v1/jobs/{id}. Jobs run
// through the same gates as their synchronous twins — a sweep job takes
// one weighted admission for the whole grid, a batch job admits per
// item — so async work cannot starve foreground requests, and every
// result record is the byte-identical JSON the sync endpoint would have
// returned for that point.

// jobCursorPrefix versions the pagination cursor encoding. A cursor is
// "v1:<decimal record index>" — opaque to clients, stable across polls
// because a job's records are append-only in deterministic grid order.
const jobCursorPrefix = "v1:"

// Result-page limits for GET /v1/jobs/{id}/results.
const (
	defaultJobPageLimit = 100
	maxJobPageLimit     = 1000
)

// jobStatusBody is a job status with the terminal error rendered
// through the unified v1 envelope (the embedded Status's plain string
// field is shadowed) and the run's summary attached.
type jobStatusBody struct {
	jobs.Status
	Error   *apiError       `json:"error,omitempty"`
	Summary json.RawMessage `json:"summary,omitempty"`
}

// jobBody snapshots a job for the wire.
func (s *Server) jobBody(j *jobs.Job) jobStatusBody {
	b := jobStatusBody{Status: j.Status(), Summary: j.Summary()}
	if err := j.Err(); err != nil {
		b.Error = newAPIError(err)
	}
	return b
}

// jobSweepSummary is the sweep job's terminal summary: the skipped grid
// combinations the synchronous response carries inline.
type jobSweepSummary struct {
	Skipped []sweepSkipBody `json:"skipped"`
}

// handleJobSubmit serves POST /v1/jobs: validate the spec up front
// (shape errors are the submitter's 400, never a failed job), register
// it in the store, and answer 202 with the job's id and Location.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; no new jobs are accepted")
		return
	}
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	op, err := req.operation()
	if err != nil {
		writeClassified(w, err)
		return
	}
	var (
		total int
		run   jobs.RunFunc
	)
	switch op {
	case "sweep":
		total, run, err = s.sweepJob(*req.Sweep)
	case "batch":
		total, run, err = s.batchJob(*req.Batch)
	}
	if err != nil {
		writeClassified(w, err)
		return
	}
	j, err := s.jobs.Submit(op, total, run)
	if err != nil {
		writeClassified(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, s.jobBody(j))
}

// sweepJob builds the run function for an async sweep. The whole grid
// passes the gates as one weighted admission — exactly like the
// synchronous handler — counted under the "jobs" route; the job is
// marked running only once admission is granted, so queue time and run
// time separate in the status.
func (s *Server) sweepJob(req SweepRequest) (int, jobs.RunFunc, error) {
	spec, err := s.sweepSpec(req)
	if err != nil {
		return 0, nil, err
	}
	run := func(ctx context.Context, pub *jobs.Publisher) ([]byte, error) {
		v, err := s.gate(ctx, "jobs", sweepWeight(spec),
			func(ctx context.Context) (any, error) {
				pub.Started()
				sp := spec
				sp.Context = ctx
				sp.OnPlan = func(points int, _ []sweep.Skip) { pub.SetTotal(points) }
				sp.OnPoint = func(index int, pt sweep.Point) {
					rec, merr := json.Marshal(newSweepPointBody(pt))
					if merr != nil {
						return // plain data struct; cannot happen
					}
					pub.Emit(index, rec)
				}
				return sweep.Run(sp)
			})
		if err != nil {
			return nil, err
		}
		res := v.(*sweep.Result)
		return json.Marshal(jobSweepSummary{Skipped: newSweepSkipBodies(res.Skipped)})
	}
	return spec.EstimatePoints(), run, nil
}

// batchJob builds the run function for an async batch. Like the
// synchronous handler, admission happens per item inside evalScenario —
// a batch job holds no grid-wide admission — so the job counts as
// running from dispatch.
func (s *Server) batchJob(req BatchRequest) (int, jobs.RunFunc, error) {
	if err := checkBatch(req); err != nil {
		return 0, nil, err
	}
	scenarios := req.Scenarios
	run := func(ctx context.Context, pub *jobs.Publisher) ([]byte, error) {
		pub.Started()
		err := sweep.ForEachPool(ctx, len(scenarios), sweep.PoolOptions{
			Label: "job-batch",
		}, func(ctx context.Context, i int) error {
			item := s.evalBatchItem(ctx, i, scenarios[i])
			rec, merr := json.Marshal(item)
			if merr != nil {
				return merr
			}
			pub.Emit(i, rec)
			return nil
		})
		if err == nil {
			err = ctx.Err()
		}
		return nil, err
	}
	return len(scenarios), run, nil
}

// jobFromPath resolves {id}; a miss writes the 404 envelope.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeClassified(w, fmt.Errorf("%w: %q", jobs.ErrNotFound, r.PathValue("id")))
		return nil, false
	}
	return j, true
}

// handleJobList serves GET /v1/jobs: resident jobs in submit order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	statuses := s.jobs.Jobs()
	body := struct {
		Jobs []jobStatusBody `json:"jobs"`
	}{Jobs: make([]jobStatusBody, 0, len(statuses))}
	for _, st := range statuses {
		if j, ok := s.jobs.Get(st.ID); ok {
			body.Jobs = append(body.Jobs, s.jobBody(j))
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleJobStatus serves GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.jobBody(j))
}

// handleJobCancel serves DELETE /v1/jobs/{id}: request cancellation and
// return the (possibly already terminal) status. Canceling a terminal
// job is a no-op, not an error — DELETE is idempotent.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.jobs.Cancel(j.ID())
	writeJSON(w, http.StatusOK, s.jobBody(j))
}

// parseJobCursor decodes a results cursor ("" means the start).
func parseJobCursor(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	digits, ok := strings.CutPrefix(raw, jobCursorPrefix)
	if !ok {
		return 0, fmt.Errorf("%w: malformed cursor %q (want %s<index>)", errBadRequest, raw, jobCursorPrefix)
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: malformed cursor %q (want %s<index>)", errBadRequest, raw, jobCursorPrefix)
	}
	return n, nil
}

// jobResultsBody is one page of a job's records in grid order.
type jobResultsBody struct {
	JobID  string     `json:"jobId"`
	Op     string     `json:"op"`
	State  jobs.State `json:"state"`
	Cursor string     `json:"cursor"`
	// NextCursor resumes after this page; identical to Cursor when the
	// page is empty. More reports whether another poll may yield records
	// (the job is live, or records remain past this page).
	NextCursor string            `json:"nextCursor"`
	More       bool              `json:"more"`
	Records    []json.RawMessage `json:"records"`
}

// handleJobResults serves GET /v1/jobs/{id}/results?cursor=&limit=.
// Pages are stable under concurrent completion: a job's records are
// append-only in deterministic grid order, so re-reading a cursor
// returns the same bytes it did the first time.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	cursor, err := parseJobCursor(r.URL.Query().Get("cursor"))
	if err != nil {
		writeClassified(w, err)
		return
	}
	limit := defaultJobPageLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit <= 0 {
			writeClassified(w, fmt.Errorf("%w: malformed limit %q (want a positive integer)", errBadRequest, raw))
			return
		}
		if limit > maxJobPageLimit {
			limit = maxJobPageLimit
		}
	}
	recs, next, more := j.Page(cursor, limit)
	st := j.Status()
	body := jobResultsBody{
		JobID:      st.ID,
		Op:         st.Op,
		State:      st.State,
		Cursor:     jobCursorPrefix + strconv.Itoa(cursor),
		NextCursor: jobCursorPrefix + strconv.Itoa(next),
		More:       more,
		Records:    make([]json.RawMessage, len(recs)),
	}
	for i, rec := range recs {
		body.Records[i] = json.RawMessage(rec)
	}
	writeJSON(w, http.StatusOK, body)
}

// handleJobStream serves GET /v1/jobs/{id}/stream: every result record
// in grid order as NDJSON (one record per line, bytes identical to the
// sync endpoint's per-point JSON) or, when the client asks with
// Accept: text/event-stream, as SSE data events. The stream starts from
// record 0 — a streamer attached from submission replays the full
// result set — and ends when the job reaches a terminal state (a
// failure or cancellation is reported as a final error-envelope line /
// an "error" SSE event).
//
// By default the job outlives its streamers: a disconnect just ends
// this response. With ?cancel_on_disconnect=true the stream owns the
// job — the client hanging up cancels it, releasing its workers.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	cancelOnDisconnect := false
	switch v := r.URL.Query().Get("cancel_on_disconnect"); v {
	case "", "false", "0":
	case "true", "1":
		cancelOnDisconnect = true
	default:
		writeClassified(w, fmt.Errorf("%w: malformed cancel_on_disconnect %q (want true|false)", errBadRequest, v))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: the first record may be a long compute
	// away, and a client blocked on response headers can't tell the
	// stream is open.
	flush()
	writeRec := func(payload []byte, event string) bool {
		var err error
		if sse {
			if event != "" {
				_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload)
			} else {
				_, err = fmt.Fprintf(w, "data: %s\n\n", payload)
			}
		} else {
			_, err = fmt.Fprintf(w, "%s\n", payload)
		}
		if err != nil {
			return false
		}
		flush()
		return true
	}
	disconnected := func() {
		if cancelOnDisconnect {
			s.jobs.Cancel(j.ID())
		}
	}
	ctx := r.Context()
	for i := 0; ; i++ {
		rec, ok, err := j.Next(ctx, i)
		switch {
		case err != nil:
			// The client went away (or the connection died); the job
			// keeps running unless this streamer owns it.
			disconnected()
			return
		case !ok:
			// Terminal before index i: end of stream.
			if jerr := j.Err(); jerr != nil {
				payload, _ := json.Marshal(errorResponse{Error: *newAPIError(jerr)})
				if !writeRec(payload, "error") {
					disconnected()
				}
				return
			}
			if sse {
				status, _ := json.Marshal(s.jobBody(j))
				writeRec(status, "end")
			}
			return
		}
		if !writeRec(rec, "") {
			disconnected()
			return
		}
	}
}
