package arbiter

import (
	"fmt"

	"multibus/internal/rng"
	"multibus/internal/topology"
)

// BusGrant records one stage-2 outcome: module Module transfers over bus
// Bus this cycle.
type BusGrant struct {
	Module int
	Bus    int
}

// BusAssigner is the stage-2 arbiter: given the modules that won stage-1
// arbitration this cycle, it decides which of them obtain a bus.
// Implementations must grant each module at most once, each bus at most
// once, and never more modules than there are usable buses.
type BusAssigner interface {
	// Assign returns the requested modules granted a bus this cycle,
	// each with the physical bus that carries it. requested must be
	// ascending module ids without duplicates; rng breaks ties where the
	// scheme draws at random. The returned slice is scratch owned by the
	// assigner, valid only until its next call — copy it to retain it.
	// (The simulator consumes it within the cycle; reusing the slice
	// keeps the hot path allocation-free.)
	Assign(requested []int, rng *rng.Rand) []BusGrant
}

// groupedAssigner serves disjoint groups of modules, each with a private
// pool of buses, granting up to B_q requests per group per cycle with a
// rotating round-robin start for fairness. It covers the full (one
// group), single (B one-bus groups), and partial-g (g groups) schemes.
type groupedAssigner struct {
	groupOf []int   // module -> group, -1 for stranded modules
	busIDs  [][]int // per group: physical bus ids
	next    []int   // per group: round-robin start module id

	// scratch, reset in place per call so steady-state arbitration
	// allocates nothing.
	perGroup [][]int    // per group: requested modules this call
	grants   []BusGrant // backing store of the returned grant list
}

// NewGroupedAssigner builds a stage-2 assigner for a network that splits
// into independent groups. moduleGroups[j] is module j's group index
// (use -1 for modules with no surviving bus); busIDs[q] lists the
// physical bus ids owned by group q.
func NewGroupedAssigner(moduleGroups []int, busIDs [][]int) (BusAssigner, error) {
	if len(moduleGroups) == 0 || len(busIDs) == 0 {
		return nil, fmt.Errorf("%w: empty group structure", ErrBadConfig)
	}
	for j, g := range moduleGroups {
		if g < -1 || g >= len(busIDs) {
			return nil, fmt.Errorf("%w: module %d in group %d of %d", ErrBadConfig, j, g, len(busIDs))
		}
	}
	cp := make([][]int, len(busIDs))
	for q, ids := range busIDs {
		cp[q] = append([]int(nil), ids...)
	}
	return &groupedAssigner{
		groupOf:  append([]int(nil), moduleGroups...),
		busIDs:   cp,
		next:     make([]int, len(busIDs)),
		perGroup: make([][]int, len(busIDs)),
	}, nil
}

// Assign grants, within each group, up to B_q of the requested modules
// in cyclic module order starting at the group's round-robin pointer,
// pairing the i-th granted module with the group's i-th bus.
func (a *groupedAssigner) Assign(requested []int, _ *rng.Rand) []BusGrant {
	for g := range a.perGroup {
		a.perGroup[g] = a.perGroup[g][:0]
	}
	for _, j := range requested {
		if j < 0 || j >= len(a.groupOf) {
			continue
		}
		g := a.groupOf[j]
		if g < 0 {
			continue // stranded module: no bus can serve it
		}
		a.perGroup[g] = append(a.perGroup[g], j)
	}
	grants := a.grants[:0]
	for g, mods := range a.perGroup {
		if len(mods) == 0 {
			continue
		}
		buses := a.busIDs[g]
		if len(buses) == 0 {
			continue
		}
		if len(mods) <= len(buses) {
			for i, j := range mods {
				grants = append(grants, BusGrant{Module: j, Bus: buses[i]})
			}
			continue
		}
		// Round-robin: take B_q modules cyclically starting at the first
		// module id ≥ next[g].
		start := 0
		for i, j := range mods {
			if j >= a.next[g] {
				start = i
				break
			}
		}
		for i := 0; i < len(buses); i++ {
			grants = append(grants, BusGrant{
				Module: mods[(start+i)%len(mods)],
				Bus:    buses[i],
			})
		}
		a.next[g] = mods[(start+len(buses))%len(mods)]
	}
	a.grants = grants
	return grants
}

// prefixAssigner implements the paper §III-D two-step bus-assignment
// procedure for nested-prefix (K-class) networks. Classes are wired to
// prefixes of the bus order; in step 1 each class C_j with R requested
// modules selects min(L_j, R) of them (round-robin within the class) and
// tentatively assigns them to buses L_j, L_j−1, …; in step 2 each bus
// arbiter grants one of its contenders, picked uniformly at random from
// the caller's RNG, and losing modules are blocked.
type prefixAssigner struct {
	classOf   []int // module -> class index, -1 for stranded
	prefixLen []int // per class
	busOrder  []int // formula position (0-based) -> physical bus id
	nextMod   []int // per class: round-robin start for step 1

	// scratch, reset in place per call so steady-state arbitration
	// allocates nothing.
	perClass   [][]int    // per class: requested modules this call
	contenders [][]int    // per formula bus: step-1 tentative modules
	grants     []BusGrant // backing store of the returned grant list
}

// NewPrefixAssigner builds the two-step assigner. moduleClasses[j]
// gives module j's class (or -1 if stranded); prefixLens[c] is the
// number of buses (from bus 1) class c is wired to; busOrder maps
// formula bus positions (0-based; position 0 is "bus 1", reached by
// every class) to physical bus ids, one per bus.
func NewPrefixAssigner(moduleClasses []int, prefixLens []int, busOrder []int) (BusAssigner, error) {
	b := len(busOrder)
	if len(moduleClasses) == 0 || len(prefixLens) == 0 || b < 1 {
		return nil, fmt.Errorf("%w: empty prefix structure", ErrBadConfig)
	}
	for j, c := range moduleClasses {
		if c < -1 || c >= len(prefixLens) {
			return nil, fmt.Errorf("%w: module %d in class %d of %d", ErrBadConfig, j, c, len(prefixLens))
		}
	}
	for c, l := range prefixLens {
		if l < 0 || l > b {
			return nil, fmt.Errorf("%w: class %d prefix %d (B=%d)", ErrBadConfig, c, l, b)
		}
	}
	return &prefixAssigner{
		classOf:    append([]int(nil), moduleClasses...),
		prefixLen:  append([]int(nil), prefixLens...),
		busOrder:   append([]int(nil), busOrder...),
		nextMod:    make([]int, len(prefixLens)),
		perClass:   make([][]int, len(prefixLens)),
		contenders: make([][]int, b),
	}, nil
}

func (a *prefixAssigner) Assign(requested []int, rng *rng.Rand) []BusGrant {
	// Step 1: per class, select up to L_c modules and map them to formula
	// buses L_c−1, L_c−2, … (0-based positions).
	contenders := a.contenders // formula bus -> contending modules
	for i := range contenders {
		contenders[i] = contenders[i][:0]
	}
	perClass := a.perClass
	for i := range perClass {
		perClass[i] = perClass[i][:0]
	}
	for _, j := range requested {
		if j < 0 || j >= len(a.classOf) {
			continue
		}
		c := a.classOf[j]
		if c < 0 {
			continue
		}
		perClass[c] = append(perClass[c], j)
	}
	// Iterate classes in index order so step-2 contender lists, and so
	// the draws over them, are deterministic.
	for c, mods := range perClass {
		if len(mods) == 0 {
			continue
		}
		l := a.prefixLen[c]
		if l == 0 {
			continue
		}
		take := l
		if len(mods) < take {
			take = len(mods)
		}
		// Round-robin selection start within the class.
		start := 0
		for i, j := range mods {
			if j >= a.nextMod[c] {
				start = i
				break
			}
		}
		for i := 0; i < take; i++ {
			mod := mods[(start+i)%len(mods)]
			bus := l - 1 - i
			contenders[bus] = append(contenders[bus], mod)
		}
		if len(mods) > take {
			a.nextMod[c] = mods[(start+take)%len(mods)]
		}
	}
	// Step 2: each bus grants one of its contenders (at most one per
	// class) uniformly at random; a lone contender costs no draw.
	grants := a.grants[:0]
	for bus, mods := range contenders {
		if len(mods) == 0 {
			continue
		}
		pick := 0
		if len(mods) > 1 {
			pick = rng.Intn(len(mods))
		}
		grants = append(grants, BusGrant{Module: mods[pick], Bus: a.busOrder[bus]})
	}
	a.grants = grants
	return grants
}

// greedyAssigner serves arbitrary wirings: buses are scanned from the
// most lightly loaded to the most connected, each granting an unserved
// requested module it reaches, with per-bus round-robin pointers. This is
// the natural hardware daisy-chain arbitration for custom topologies that
// fit none of the paper's schemes.
type greedyAssigner struct {
	m        int // module count (bitset width)
	busOrder []int
	modsOn   [][]int // per bus: wired modules, ascending (precomputed wiring)
	next     []int   // per bus: round-robin pointer over module ids

	// scratch, reset in place per call so steady-state arbitration
	// allocates nothing.
	pending []uint64   // bitset over module ids: requested and not yet served
	grants  []BusGrant // backing store of the returned grant list
}

// NewGreedyAssigner builds a fallback stage-2 assigner for any topology.
// The bus wiring is captured at construction; the assigner does not
// track later surgery on nw (build a new assigner after WithoutBus).
func NewGreedyAssigner(nw *topology.Network) (BusAssigner, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	// Scan scarce buses first: a bus wired to few modules has fewer
	// alternatives, so letting it pick first wastes less capacity.
	order := make([]int, nw.B())
	for i := range order {
		order[i] = i
	}
	modsOn := make([][]int, nw.B())
	for i := 0; i < nw.B(); i++ {
		modsOn[i] = nw.ModulesOnBus(i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && len(modsOn[order[j-1]]) > len(modsOn[order[j]]); j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return &greedyAssigner{
		m:        nw.M(),
		busOrder: order,
		modsOn:   modsOn,
		next:     make([]int, nw.B()),
		pending:  make([]uint64, (nw.M()+63)/64),
	}, nil
}

func (a *greedyAssigner) Assign(requested []int, _ *rng.Rand) []BusGrant {
	pending := a.pending
	for i := range pending {
		pending[i] = 0
	}
	for _, j := range requested {
		if j < 0 || j >= a.m {
			continue
		}
		pending[j>>6] |= 1 << uint(j&63)
	}
	grants := a.grants[:0]
	for _, bus := range a.busOrder {
		mods := a.modsOn[bus]
		if len(mods) == 0 {
			continue
		}
		// Round-robin: first pending module at or after the pointer.
		start := 0
		for i, j := range mods {
			if j >= a.next[bus] {
				start = i
				break
			}
		}
		for i := 0; i < len(mods); i++ {
			j := mods[(start+i)%len(mods)]
			if pending[j>>6]&(1<<uint(j&63)) != 0 {
				grants = append(grants, BusGrant{Module: j, Bus: bus})
				pending[j>>6] &^= 1 << uint(j&63)
				a.next[bus] = j + 1
				break
			}
		}
	}
	a.grants = grants
	return grants
}
