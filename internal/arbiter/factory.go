package arbiter

import (
	"errors"
	"fmt"

	"multibus/internal/analytic"
	"multibus/internal/topology"
)

// ForTopology builds the stage-2 bus assigner matching the paper's
// arbitration for the given topology: the ForStructure assigner of its
// classification, or a greedy per-bus assigner for custom wirings with
// no closed-form structure.
func ForTopology(nw *topology.Network) (BusAssigner, error) {
	s, err := analytic.Classify(nw)
	if errors.Is(err, analytic.ErrNoClosedForm) {
		return NewGreedyAssigner(nw)
	}
	if err != nil {
		return nil, err
	}
	return ForStructure(s)
}

// ForStructure builds the stage-2 bus assigner for a classified
// network: a grouped round-robin B-of-M assigner for independent groups
// (full/single/partial), the two-step class procedure for prefix
// classes (K-class). s is only read, so a shared classification serves
// any number of assigners.
func ForStructure(s *analytic.Structure) (BusAssigner, error) {
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
