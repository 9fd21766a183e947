package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"multibus/internal/analytic"
	"multibus/internal/hrm"
	"multibus/internal/jobs"
	"multibus/internal/scenario"
	"multibus/internal/sim"
	"multibus/internal/sweep"
	"multibus/internal/topology"
)

// ErrOverloaded tags requests shed by admission control: the semaphore
// was full and the wait queue at its bound. Clients see 429 with a
// Retry-After hint. Match with errors.Is.
var ErrOverloaded = errors.New("service: overloaded")

// overloadedError is the concrete shed error: ErrOverloaded plus the
// admission layer's backoff estimate.
type overloadedError struct {
	retryAfter time.Duration
}

func (e *overloadedError) Error() string {
	return fmt.Sprintf("service: overloaded: admission queue full, retry in %s",
		e.retryAfter.Round(time.Second))
}
func (e *overloadedError) Is(target error) bool { return target == ErrOverloaded }

// apiError is the unified v1 error envelope, the single JSON error
// shape every route emits:
//
//	{"error": {"code", "message", "retryable", "retry_after_s"}}
//
// Codes are the stable classification vocabulary (invalid_request,
// no_closed_form, overloaded, canceled, deadline_exceeded,
// internal_error, plus the surface-specific not_found and draining, and
// the cluster control plane's forbidden and not_ready). Retryable tells clients whether backing off and resending
// the identical request can succeed; RetryAfterS mirrors the
// Retry-After header in whole seconds and is set on every overloaded
// error.
type apiError struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	Retryable   bool   `json:"retryable"`
	RetryAfterS int64  `json:"retry_after_s,omitempty"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// retryableCode reports whether resending the same request later can
// succeed: true for the service's own transient refusals and faults,
// false for client faults (the request itself is wrong) and for
// cancellations the client caused.
func retryableCode(code string) bool {
	switch code {
	case "overloaded", "deadline_exceeded", "internal_error", "draining",
		"not_ready":
		// not_ready resolves as membership converges; forbidden (the
		// hop-guard refusal) never does and stays false.
		return true
	}
	return false
}

// newAPIError renders a classified evaluation error as the envelope
// payload (shared by top-level error responses and per-item batch
// errors). It is the one place an overloaded envelope gets its backoff
// hint: the admission layer's estimate for a shed, 1s for anything else
// (a full job store carries no estimate).
func newAPIError(err error) *apiError {
	_, code := classify(err)
	ae := &apiError{Code: code, Message: err.Error(), Retryable: retryableCode(code)}
	if code == "overloaded" {
		retryAfter := time.Second
		var shed *overloadedError
		if errors.As(err, &shed) {
			retryAfter = shed.retryAfter
		}
		ae.RetryAfterS = retryAfterSeconds(retryAfter)
	}
	return ae
}

// retryAfterSeconds renders a backoff hint in whole seconds, rounded
// up and floored at 1 so clients never retry immediately.
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// badInputSentinels are the typed validation errors of the domain
// layers; any error matching one of them is the client's fault. This
// list is why the API overhaul replaced ad-hoc fmt.Errorf validation
// with sentinels: the service classifies errors with errors.Is, never
// by substring.
var badInputSentinels = []error{
	errBadRequest,
	scenario.ErrInvalid,
	topology.ErrBadDimensions,
	topology.ErrBadGrouping,
	topology.ErrDisconnected,
	topology.ErrBusOutOfRange,
	topology.ErrModOutOfRange,
	hrm.ErrBadShape,
	hrm.ErrBadFractions,
	hrm.ErrNotNormalized,
	hrm.ErrBadRate,
	sim.ErrBadConfig,
	sim.ErrMismatch,
	sweep.ErrBadSpec,
}

// classify maps an evaluation error to its HTTP status and stable error
// code.
func classify(err error) (status int, code string) {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, jobs.ErrStoreFull):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, jobs.ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, jobs.ErrCanceled):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		// The client went away; the status is written for logging
		// middleware more than for the (absent) reader.
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, analytic.ErrNoClosedForm):
		// Valid input outside the closed-form families: the request is
		// well-formed but unanswerable by this endpoint.
		return http.StatusUnprocessableEntity, "no_closed_form"
	}
	for _, sentinel := range badInputSentinels {
		if errors.Is(err, sentinel) {
			return http.StatusBadRequest, "invalid_request"
		}
	}
	return http.StatusInternalServerError, "internal_error"
}
