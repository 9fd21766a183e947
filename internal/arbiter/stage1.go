// Package arbiter implements the two-stage arbitration scheme of Lang,
// Valero, and Alegre that the paper adopts (§II-A) for resolving memory
// and bus contention in N×M×B multiple bus networks:
//
//   - Stage 1: M arbiters of the N-users/1-server type, one per memory
//     module, each selecting a single processor among those requesting
//     its module.
//   - Stage 2: a B-out-of-M bus assigner granting buses to the module
//     requests that survived stage 1. Full/partial/single networks use a
//     round-robin B-of-M assigner per independent bus group; K-class
//     networks use the two-step class assignment procedure of
//     Lang–Valero–Fiol (the paper §III-D); arbitrary wirings fall back
//     to a per-bus greedy assigner.
//
// The package holds exactly what the simulator calls: NewStage1 and
// Stage1.Grant once per requested module, and ForTopology's assigner
// (or a caller-supplied one) whose Assign runs once per cycle. All
// arbiters are deterministic given the caller's RNG, making simulations
// reproducible from a seed.
package arbiter

import (
	"errors"
	"fmt"

	"multibus/internal/rng"
)

// Stage1Policy selects how an N-users/1-server memory arbiter breaks
// ties among requesting processors.
type Stage1Policy int

const (
	// PolicyRandom picks uniformly among requesters — the paper's
	// assumption ("selects with equal probability one of the
	// processors").
	PolicyRandom Stage1Policy = iota
	// PolicyRoundRobin grants the requester after the previous winner in
	// cyclic processor order.
	PolicyRoundRobin
	// PolicyFixedPriority always grants the lowest-numbered requester.
	PolicyFixedPriority
)

// String names the policy.
func (p Stage1Policy) String() string {
	switch p {
	case PolicyRandom:
		return "random"
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyFixedPriority:
		return "fixed-priority"
	default:
		return fmt.Sprintf("Stage1Policy(%d)", int(p))
	}
}

// ErrBadConfig is returned by constructors given an invalid shape.
var ErrBadConfig = errors.New("arbiter: invalid configuration")

// Stage1 is the bank of M memory arbiters. The zero value is unusable;
// construct with NewStage1.
type Stage1 struct {
	policy Stage1Policy
	last   []int // per-module: last granted processor (round-robin)
}

// NewStage1 builds a bank of m memory arbiters with the given policy.
func NewStage1(m int, policy Stage1Policy) (*Stage1, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: M=%d", ErrBadConfig, m)
	}
	switch policy {
	case PolicyRandom, PolicyRoundRobin, PolicyFixedPriority:
	default:
		return nil, fmt.Errorf("%w: unknown policy %d", ErrBadConfig, int(policy))
	}
	last := make([]int, m)
	for i := range last {
		last[i] = -1
	}
	return &Stage1{policy: policy, last: last}, nil
}

// Grant selects one processor among requesters (ascending processor ids,
// at least one) contending for module, which must be in [0, M). rng is
// consulted only under PolicyRandom.
func (s *Stage1) Grant(module int, requesters []int, rng *rng.Rand) int {
	switch s.policy {
	case PolicyRandom:
		return requesters[rng.Intn(len(requesters))]
	case PolicyRoundRobin:
		// First requester strictly after the previous winner, cyclically.
		winner := requesters[0]
		for _, p := range requesters {
			if p > s.last[module] {
				winner = p
				break
			}
		}
		s.last[module] = winner
		return winner
	default: // PolicyFixedPriority
		return requesters[0]
	}
}
