package service

import (
	"errors"
	"fmt"

	"multibus/internal/scenario"
)

// errBadRequest tags request-shape errors the domain layer cannot see:
// malformed JSON, trailing bodies, unknown batch operations. Scenario
// content errors carry scenario.ErrInvalid instead; both map to 400.
var errBadRequest = errors.New("service: invalid request")

// The request spec types are the canonical scenario types — the JSON
// wire shapes and the validation/defaulting rules live in
// internal/scenario, shared byte-for-byte with the CLI's -scenario
// files and the sweep grid axes.
type (
	// NetworkSpec selects a topology; see scenario.Network.
	NetworkSpec = scenario.Network
	// ModelSpec selects a request model; see scenario.Model.
	ModelSpec = scenario.Model
	// SimSpec carries simulator knobs; see scenario.Sim.
	SimSpec = scenario.Sim
)

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Network NetworkSpec `json:"network"`
	Model   ModelSpec   `json:"model"`
	R       float64     `json:"r"`
}

// scenario renders the request as a canonical scenario (no sim block:
// analysis is closed-form).
func (req AnalyzeRequest) scenario() scenario.Scenario {
	return scenario.Scenario{Network: req.Network, Model: req.Model, R: req.R}
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	Network NetworkSpec `json:"network"`
	Model   ModelSpec   `json:"model"`
	R       float64     `json:"r"`
	Sim     SimSpec     `json:"sim,omitempty"`
}

func (req SimulateRequest) scenario() scenario.Scenario {
	s := req.Sim
	return scenario.Scenario{Network: req.Network, Model: req.Model, R: req.R, Sim: &s}
}

// SweepRequest is the body of POST /v1/sweep; it mirrors sweep.Spec.
// Schemes entries are sweep axis names ("full", "single", "partial",
// "partial-g<G>", "kclasses", "crossbar"); Networks optionally adds
// explicit network templates (e.g. kclass with ClassSizes) and Models
// adds request-model axes beyond the Hierarchical default.
type SweepRequest struct {
	Ns           []int         `json:"ns"`
	Bs           []int         `json:"bs"`
	Rs           []float64     `json:"rs"`
	Schemes      []string      `json:"schemes,omitempty"`
	Networks     []NetworkSpec `json:"networks,omitempty"`
	Models       []ModelSpec   `json:"models,omitempty"`
	Hierarchical bool          `json:"hierarchical,omitempty"`
	WithSim      bool          `json:"withSim,omitempty"`
	SimCycles    int           `json:"simCycles,omitempty"`
	Seed         int64         `json:"seed,omitempty"`
}

// BatchItem is one entry of POST /v1/batch: a full scenario plus an
// optional operation override. Op is "analyze" or "simulate"; empty
// means simulate when a sim block is present and analyze otherwise.
type BatchItem struct {
	scenario.Scenario
	Op string `json:"op,omitempty"`
}

// operation resolves the item's effective operation.
func (it BatchItem) operation() (string, error) {
	switch it.Op {
	case "analyze", "simulate":
		return it.Op, nil
	case "":
		if it.Sim != nil {
			return "simulate", nil
		}
		return "analyze", nil
	default:
		return "", fmt.Errorf("%w: unknown op %q (want analyze|simulate)", errBadRequest, it.Op)
	}
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Scenarios []BatchItem `json:"scenarios"`
}

// maxBatchItems bounds one batch request; it exists so a single body
// cannot occupy the worker pool indefinitely.
const maxBatchItems = 1024

// maxSweepPoints bounds one sweep grid, sync or async, by its estimated
// point count (sweep.Spec.EstimatePoints). A compact body can name a
// grid of millions of points, and enumeration alone costs about 770 B
// per point; the cap is also the most records one sweep job holds.
const maxSweepPoints = 65536

// JobRequest is the body of POST /v1/jobs: exactly one of Sweep or
// Batch, evaluated asynchronously with results delivered through the
// job's results/stream endpoints instead of the response body.
type JobRequest struct {
	Sweep *SweepRequest `json:"sweep,omitempty"`
	Batch *BatchRequest `json:"batch,omitempty"`
}

// operation resolves which surface the job drives, rejecting bodies
// that name both or neither.
func (req JobRequest) operation() (string, error) {
	switch {
	case req.Sweep != nil && req.Batch != nil:
		return "", fmt.Errorf("%w: job body names both sweep and batch; pick one", errBadRequest)
	case req.Sweep != nil:
		return "sweep", nil
	case req.Batch != nil:
		return "batch", nil
	default:
		return "", fmt.Errorf("%w: job body must name a sweep or a batch", errBadRequest)
	}
}
