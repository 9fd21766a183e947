package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"multibus/internal/compute"
	"multibus/internal/scenario"
)

// StatusError is a peer response with a non-200 status. Whatever the
// status, the peer answered, so it counts as alive: compute is pure,
// and a 4xx or 5xx is one request's fault, which the local fallback
// reproduces. Code carries the machine-readable code parsed from
// the v1 error envelope ({"error":{code,...}}) when the body was one —
// it labels mbserve_peer_requests_total{result} so dashboards can tell
// a shed peer from a broken one.
type StatusError struct {
	Status int
	Code   string // envelope code ("" when the body was not an envelope)
	Body   string // first line of the raw body, for logs
}

func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("cluster: peer returned %d %s: %s", e.Status, e.Code, e.Body)
	}
	return fmt.Sprintf("cluster: peer returned %d: %s", e.Status, e.Body)
}

// Result renders the error's result label for peer-request metrics: the
// envelope code when one was parsed, http_<status> otherwise.
func (e *StatusError) Result() string {
	if e.Code != "" {
		return e.Code
	}
	return fmt.Sprintf("http_%d", e.Status)
}

// newStatusError captures a non-200 response body (bounded) and parses
// the v1 envelope out of it.
func newStatusError(resp *http.Response) *StatusError {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	resp.Body.Close()
	se := &StatusError{Status: resp.StatusCode}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		se.Code = env.Error.Code
		se.Body = env.Error.Message
		return se
	}
	if line, _, _ := bytes.Cut(bytes.TrimSpace(raw), []byte("\n")); len(line) > 0 {
		if len(line) > 512 {
			line = line[:512]
		}
		se.Body = string(line)
	}
	return se
}

// unreachable reports whether err means no HTTP response came back
// from the peer. http.Client.Do returns every failure as a *url.Error;
// status errors, and decode failures of a response that did arrive,
// mean the peer is up.
func unreachable(err error) bool {
	if err == nil {
		return false // the common case, spared the errors.As reflection
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// Client speaks the mbserve peer protocol: the ordinary v1 endpoints
// for single evaluations and /v1/cluster/sweep for shards, always with
// the X-Mb-Forwarded hop guard set so the receiving instance computes
// locally. Every call is one attempt: the recovery behind a failed
// forward or shard is local compute, and the membership state machine
// judges the peer. Response deadlines are whatever ctx carries — the
// service's per-request timeout propagates to the peer hop.
type Client struct {
	// HTTP is the underlying client; nil means http.DefaultClient
	// semantics with no client-level timeout (ctx deadlines govern).
	HTTP *http.Client
	// Self identifies this instance in the hop-guard header.
	Self string
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post sends the encoded body to peer+path in one attempt. The caller
// owns the response body on success; any non-200 is drained, closed,
// and returned as a *StatusError.
func (c *Client) post(ctx context.Context, peer, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(compute.ForwardedHeader, c.Self)
	// Peer requests are idempotent (compute is pure, membership applies
	// are idempotent), so net/http may replay one that failed on a reused
	// keep-alive connection the peer had already closed. A nil value
	// marks the request without sending the header.
	req.Header["Idempotency-Key"] = nil
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, newStatusError(resp)
	}
	return resp, nil
}

// postJSON encodes body, posts it, and decodes a single JSON response
// body into dst.
func (c *Client) postJSON(ctx context.Context, peer, path string, body, dst any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: encoding request: %w", err)
	}
	resp, err := c.post(ctx, peer, path, buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return fmt.Errorf("cluster: decoding %s response: %w", path, err)
	}
	return nil
}

// Analyze forwards one closed-form evaluation to peer as the canonical
// scenario. The analyze surface has no sim block, so it is cleared.
func (c *Client) Analyze(ctx context.Context, peer string, sc scenario.Scenario) (*compute.Analysis, error) {
	sc.Sim = nil
	var out compute.Analysis
	if err := c.postJSON(ctx, peer, "/v1/analyze", sc, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulate forwards one simulation to peer as the canonical scenario. A
// nil sim block is omitted and canonicalizes on the peer to the
// defaults — the identical cache key either way.
func (c *Client) Simulate(ctx context.Context, peer string, sc scenario.Scenario) (*compute.SimResult, error) {
	var out compute.SimResult
	if err := c.postJSON(ctx, peer, "/v1/simulate", sc, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SweepShard streams one shard through peer, invoking onRecord for
// every NDJSON record as it arrives (point and error records alike;
// indices refer to the shard's points). body is an encoded
// compute.ShardRequest; the coordinator encodes it point by point to
// keep it under the worker's limits. A truncated stream returns an
// error after the records that did arrive — the caller treats unseen
// indices as failed and recomputes them locally.
func (c *Client) SweepShard(ctx context.Context, peer string, body []byte, onRecord func(compute.ShardRecord)) error {
	resp, err := c.post(ctx, peer, "/v1/cluster/sweep", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var rec compute.ShardRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("cluster: shard stream from %s: %w", peer, err)
		}
		onRecord(rec)
	}
}

// Probe checks peer's liveness with one GET /healthz, so the membership
// state machine sees every wire fault (hysteresis, not retries, is the
// flap filter). Any non-200 (a draining peer's 503 included) is a
// failed probe.
func (c *Client) Probe(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return err
	}
	req.Header.Set(compute.ForwardedHeader, c.Self)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return newStatusError(resp)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return nil
}

// ApplyMembership posts one join/leave application to peer and returns
// the peer's resulting view.
func (c *Client) ApplyMembership(ctx context.Context, peer, op, subject string) (compute.MembershipView, error) {
	var view compute.MembershipView
	err := c.postJSON(ctx, peer, "/v1/cluster/membership",
		compute.MembershipRequest{Op: op, Peer: subject}, &view)
	return view, err
}
