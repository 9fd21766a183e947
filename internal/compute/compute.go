// Package compute defines the transport-agnostic compute seam of the
// serving stack: the Backend interface the service's gate and the sweep
// engine call instead of invoking the multibus façade directly, the
// wire-shaped result types every transport serializes, the request
// shapes of the peer endpoints (one definition for the client in
// internal/cluster and the handlers in internal/service), and the
// forwarded-hop marker that keeps cluster routing loop-free.
//
// The package is a leaf below service, sweep, and cluster: it knows how
// to evaluate one canonical scenario (LocalBackend) and how results look
// on the wire, but nothing about HTTP, caches-as-policy, or peers. It
// classifies nothing either: a built scenario carries its wiring's
// classification (scenario.Built.Structure), so a closed-form evaluation
// is X(r) plus one formula. That
// layering is what makes the compute path pluggable — the in-process
// path (LocalBackend), the consistent-hash forwarding path
// (internal/cluster), and any future transport all satisfy one
// interface, keyed by the same canonical scenario.Key strings, so they
// are interchangeable byte-for-byte.
//
// Result types here are the JSON bodies the HTTP layer ships. Their
// field order and tags are fixed: encoding/json round-trips float64
// values exactly (strconv shortest representation), so a result decoded
// from a peer and re-encoded locally is byte-identical to the peer's
// own rendering — the property cross-instance caching relies on.
package compute

import (
	"context"
	"encoding/json"

	"multibus/internal/cache"
	"multibus/internal/scenario"
)

// ForwardedHeader is the hop-guard request header: a peer client sets
// it (to its own identity) on every forwarded request, the receiving
// service marks the request context with WithForwarded, and routing
// backends must then compute locally. One hop, never a loop — even when
// two instances disagree about ring ownership.
const ForwardedHeader = "X-Mb-Forwarded"

// forwardedKey marks a context as belonging to an already-forwarded
// request.
type forwardedKey struct{}

// WithForwarded marks ctx as carrying a peer-forwarded request.
func WithForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, forwardedKey{}, true)
}

// Forwarded reports whether ctx carries a peer-forwarded request.
func Forwarded(ctx context.Context) bool {
	v, _ := ctx.Value(forwardedKey{}).(bool)
	return v
}

// Analysis is the closed-form result as it appears on the wire
// (the /v1/analyze response body).
type Analysis struct {
	X                    float64 `json:"x"`
	Bandwidth            float64 `json:"bandwidth"`
	CrossbarBandwidth    float64 `json:"crossbarBandwidth"`
	BusUtilization       float64 `json:"busUtilization"`
	PerformanceCostRatio float64 `json:"performanceCostRatio"`
}

// SimResult is the simulation result as it appears on the wire
// (the /v1/simulate response body).
type SimResult struct {
	Cycles                int     `json:"cycles"`
	Mode                  string  `json:"mode"`
	Bandwidth             float64 `json:"bandwidth"`
	BandwidthCI95         float64 `json:"bandwidthCI95"`
	AcceptanceProbability float64 `json:"acceptanceProbability"`
	BusUtilization        float64 `json:"busUtilization"`
	MeanWaitCycles        float64 `json:"meanWaitCycles"`
	Offered               int64   `json:"offered"`
	Accepted              int64   `json:"accepted"`
	NewRequests           int64   `json:"newRequests"`
	MemoryBlocked         int64   `json:"memoryBlocked"`
	BusBlocked            int64   `json:"busBlocked"`
	StrandedBlocked       int64   `json:"strandedBlocked"`
	ModuleBusyBlocked     int64   `json:"moduleBusyBlocked"`
	JainFairness          float64 `json:"jainFairness"`
}

// Point is one evaluated sweep grid point as it appears on the wire.
// Scheme and Model are the axis names (scenario AxisName values).
type Point struct {
	Scheme       string  `json:"scheme"`
	Model        string  `json:"model"`
	N            int     `json:"n"`
	B            int     `json:"b"`
	R            float64 `json:"r"`
	X            float64 `json:"x"`
	Bandwidth    float64 `json:"bandwidth"`
	Simulated    bool    `json:"simulated,omitempty"`
	SimBandwidth float64 `json:"simBandwidth,omitempty"`
	SimCI95      float64 `json:"simCI95,omitempty"`
}

// PointJob is one sweep grid point awaiting evaluation: the built
// scenario plus the axis labels its Point carries. Everything a backend
// evaluates comes from Built, which carries its own classification, so
// a peer that rebuilds the job from its wire form evaluates it exactly
// as the enumerator's job.
type PointJob struct {
	Built *scenario.Built
	// Axis is the scheme axis name — part of the sweep-point cache key,
	// so it must cross transports verbatim.
	Axis string
	// Model is the model axis name carried into the output Point.
	Model   string
	WithSim bool
}

// Key returns the job's canonical sweep-point cache key — the string
// the cluster ring shards on and every memo layer stores under.
func (jb PointJob) Key() string {
	return jb.Built.SweepPointKey(jb.Axis, jb.WithSim)
}

// Spec strips the job to its wire form; the receiving worker rebuilds
// the rest from the canonical scenario.
func (jb PointJob) Spec() PointSpec {
	return PointSpec{Scenario: jb.Built.Scenario, Axis: jb.Axis, Model: jb.Model, WithSim: jb.WithSim}
}

// PointSpec is one sweep grid point on the wire, the request item of
// POST /v1/cluster/sweep: the full canonical scenario (rate included)
// plus the sweep axis tags that complete its SweepPointKey. Shipping the
// tags, rather than deriving them, keeps the worker's cache key
// byte-identical to the key the coordinator's own enumerator produced.
type PointSpec struct {
	Scenario scenario.Scenario `json:"scenario"`
	Axis     string            `json:"axis"`
	Model    string            `json:"model"`
	WithSim  bool              `json:"withSim,omitempty"`
}

// MaxShardPoints and MaxShardBytes bound one POST /v1/cluster/sweep
// request. The worker refuses a shard of more points; the coordinator
// ends a chunk at whichever limit comes first. Counting points alone
// does not keep a chunk under the worker's body limit: at N = 1024,
// B = 64 a canonical point encodes to 142–214 B for the built-in
// schemes, and an explicit kclass template with 64 class sizes takes it
// past 550 B.
const (
	MaxShardPoints = 4096
	MaxShardBytes  = 512 << 10
)

// ShardRequest is the body of POST /v1/cluster/sweep.
type ShardRequest struct {
	Points []PointSpec `json:"points"`
}

// ShardRecord is one NDJSON record of a POST /v1/cluster/sweep
// response: the point at index Index of the request's points, or the
// error envelope object ({"code","message",...}) when it failed. Error stays raw on
// the coordinator side, which recomputes failed indices locally where the
// same failure re-classifies natively.
type ShardRecord struct {
	Index int             `json:"i"`
	Point *Point          `json:"point,omitempty"`
	Error json.RawMessage `json:"error,omitempty"`
}

// MembershipRequest is the body of POST /v1/cluster/membership: one
// join or leave application, sent by the subject instance itself.
type MembershipRequest struct {
	Op   string `json:"op"`
	Peer string `json:"peer"`
}

// MembershipView answers a membership application with the applied
// instance's resulting view; a joiner adopts Peers from it.
type MembershipView struct {
	Version uint64            `json:"version"`
	Peers   []string          `json:"peers"`
	States  map[string]string `json:"states"`
	Changed bool              `json:"changed"`
}

// Backend evaluates canonical scenarios. Implementations must be safe
// for concurrent use and deterministic: equal canonical scenarios
// (equal scenario.Key strings) must produce equal results regardless of
// which backend — or which cluster instance — computed them.
type Backend interface {
	// Analyze evaluates the closed-form bandwidth analysis.
	Analyze(ctx context.Context, built *scenario.Built) (*Analysis, error)
	// Simulate runs the Monte-Carlo simulation.
	Simulate(ctx context.Context, built *scenario.Built) (*SimResult, error)
	// SweepPoint evaluates one sweep grid point.
	SweepPoint(ctx context.Context, jb PointJob) (Point, error)
}

// SweepBatch is one partitioned sweep hand-off to a BatchSweeper: the
// enumerated jobs in grid order, the caller's local evaluation loop,
// and the emit callback receiving each completed point with its grid
// index. Emit may be called from multiple goroutines and in any order;
// the caller reassembles grid order by index.
type SweepBatch struct {
	Jobs []PointJob
	// Local evaluates the listed grid indices on this instance —
	// memoized, on the caller's worker pool — and emits each point
	// through Emit. The first error (by lowest index) aborts it and is
	// returned. Never nil.
	Local func(ctx context.Context, idxs []int) error
	// Emit receives each completed point. Must be safe for concurrent
	// use; never nil.
	Emit func(index int, pt Point)
}

// BatchSweeper is the whole-grid seam: a backend that wants to see the
// full enumerated grid at once — to partition it across peers, say —
// implements it, and sweep.Run hands over the batch instead of looping
// point by point. Per-point semantics (memoization, determinism, first
// error aborts) are unchanged.
type BatchSweeper interface {
	SweepBatch(ctx context.Context, batch SweepBatch) error
}

// MemoPoint evaluates one job through the memo cache when one is
// present and directly otherwise. Evaluation is deterministic given the
// job's key, so a hit returns exactly the Point a recompute would.
func MemoPoint(ctx context.Context, memo *cache.Cache, backend Backend, jb PointJob) (Point, error) {
	if memo == nil {
		return backend.SweepPoint(ctx, jb)
	}
	v, _, err := memo.Do(ctx, jb.Key(), func() (any, error) {
		pt, err := backend.SweepPoint(ctx, jb)
		if err != nil {
			return nil, err
		}
		return pt, nil
	})
	if err != nil {
		return Point{}, err
	}
	return v.(Point), nil
}
