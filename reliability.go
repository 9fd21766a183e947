package multibus

import (
	"fmt"
	"io"

	"multibus/internal/fault"
	"multibus/internal/sim"
	"multibus/internal/workload"
)

// TrajectoryPoint is the expected state of a degrading network at one
// mission instant; see fault.TrajectoryPoint.
type TrajectoryPoint = fault.TrajectoryPoint

// BandwidthTrajectory evaluates the expected bandwidth and the
// probability all modules stay reachable at each time, when buses fail
// independently with rate lambda (exponential lifetimes, no repair) and
// the workload runs at request rate r.
func BandwidthTrajectory(nw *Network, model RequestModel, r, lambda float64, times []float64) ([]TrajectoryPoint, error) {
	if nw == nil || model == nil {
		return nil, fmt.Errorf("%w: BandwidthTrajectory requires a network and a model", ErrNilArgument)
	}
	if err := checkModelDims(nw, model); err != nil {
		return nil, err
	}
	x, err := model.X(r)
	if err != nil {
		return nil, err
	}
	return fault.BandwidthTrajectory(nw, x, lambda, times)
}

// MissionCapacity integrates a trajectory's expected bandwidth over time
// (trapezoidal rule): the expected total requests served across the
// mission.
func MissionCapacity(traj []TrajectoryPoint) (float64, error) {
	return fault.MissionCapacity(traj)
}

// ReadTraceWorkload parses a request trace (the plain-text format
// documented in internal/workload: an "n=<N> m=<M>" header, then "cycle"
// lines each followed by "<processor> <module>" request lines) and
// returns a replaying workload.
func ReadTraceWorkload(r io.Reader) (Workload, error) {
	return workload.NewTraceFromReader(r)
}

// WriteTrace serializes per-cycle requests in the trace format readable
// by ReadTraceWorkload.
func WriteTrace(w io.Writer, n, m int, cycles [][]TraceRequest) error {
	return workload.WriteTrace(w, n, m, cycles)
}

// RecordWorkload runs any workload for the given number of cycles under
// a fixed seed and captures the emitted requests, so stochastic
// workloads can be replayed exactly (e.g. to compare arbitration
// policies on identical request streams).
func RecordWorkload(gen Workload, cycles int, seed int64) ([][]TraceRequest, error) {
	return workload.Record(gen, cycles, sim.NewSeededRand(seed))
}
