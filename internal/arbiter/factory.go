package arbiter

import (
	"errors"
	"fmt"

	"multibus/internal/analytic"
	"multibus/internal/topology"
)

// ForTopology builds the stage-2 bus assigner matching the paper's
// arbitration for the given topology: a grouped round-robin B-of-M
// assigner for full/single/partial networks, the two-step class
// procedure for K-class (nested-prefix) networks, and a greedy per-bus
// assigner for custom wirings with no closed-form structure.
func ForTopology(nw *topology.Network) (BusAssigner, error) {
	s, err := analytic.Classify(nw)
	if errors.Is(err, analytic.ErrNoClosedForm) {
		return NewGreedyAssigner(nw)
	}
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case analytic.StructureIndependentGroups:
		busIDs := make([][]int, len(s.Groups))
		for bus, q := range s.BusGroups {
			if q >= 0 {
				busIDs[q] = append(busIDs[q], bus)
			}
		}
		return NewGroupedAssigner(s.ModuleGroups, busIDs)
	case analytic.StructurePrefixClasses:
		prefixLens := make([]int, len(s.Classes))
		for c, cl := range s.Classes {
			prefixLens[c] = cl.PrefixLen
		}
		return NewPrefixAssigner(s.ModuleClasses, prefixLens, s.BusOrder)
	default:
		return nil, fmt.Errorf("%w: unhandled structure %v", ErrBadConfig, s.Kind)
	}
}
