// Package topology models the physical structure of N×M×B multiple bus
// interconnection networks: which memory module is wired to which bus.
// Every processor is connected to every bus in all of the paper's
// schemes, so a topology is fully described by its bus–module wiring
// plus the processor count.
//
// The four schemes of the paper are provided as constructors:
//
//   - Full          — every module on every bus (paper Fig. 1)
//   - SingleBus     — each module on exactly one bus (paper Fig. 4)
//   - PartialGroups — Lang et al.'s g-group partial bus network (Fig. 2)
//   - KClasses      — the paper's proposal: class C_j modules on buses
//     1 … j+B−K (Fig. 3)
//
// plus Custom for arbitrary bus–module wirings. The package also computes
// the cost metrics of the paper's Table I (connection counts, per-bus
// load, degree of fault tolerance) directly from the wiring, and supports
// bus-failure surgery for degraded-mode analysis.
//
// The wiring is stored as sorted adjacency lists (modules per bus and
// buses per module), not as a dense B×M matrix: every scheme except Full
// is sparse, so memory and construction time are proportional to the
// number of connections, and the scheme constructors share row storage
// (Full, PartialGroups, and KClasses reuse one index sequence across
// rows, so even dense wirings cost O(M+B) ints). The dense 0/1 matrix
// survives only as a row-at-a-time view for the text renderers
// (Diagram, ConnectionMatrix, WriteWiring).
package topology

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Scheme identifies the bus–memory connection scheme of a Network.
type Scheme int

// Connection schemes, in the order the paper introduces them.
const (
	SchemeCustom Scheme = iota
	SchemeFull
	SchemeSingleBus
	SchemePartialGroups
	SchemeKClasses
)

// String returns the scheme name as used in the paper.
func (s Scheme) String() string {
	switch s {
	case SchemeFull:
		return "full bus-memory connection"
	case SchemeSingleBus:
		return "single bus-memory connection"
	case SchemePartialGroups:
		return "partial bus network"
	case SchemeKClasses:
		return "partial bus network with K classes"
	case SchemeCustom:
		return "custom bus-memory connection"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Errors returned by topology constructors and methods.
var (
	ErrBadDimensions = errors.New("topology: invalid dimensions")
	ErrBadGrouping   = errors.New("topology: invalid group/class structure")
	ErrBusOutOfRange = errors.New("topology: bus index out of range")
	ErrModOutOfRange = errors.New("topology: module index out of range")
	ErrDisconnected  = errors.New("topology: module connected to no bus")
)

// Network is an immutable N×M×B multiple bus network topology. The zero
// value is not usable; build one with a constructor. Because nothing
// mutates a Network after construction, one value may be shared by any
// number of goroutines and callers.
type Network struct {
	n, m, b int
	scheme  Scheme

	// Primary wiring representation: sorted adjacency lists. Rows may
	// share backing storage (scheme constructors alias one index
	// sequence; Custom/WithoutBus pack all rows into one backing array)
	// and are always capacity-clipped, so a caller-side append can never
	// bleed into a neighboring row. The accessors hand the sub-slices
	// out directly — read-only by contract. Empty rows stay nil.
	modsOnBus   [][]int // modsOnBus[bus]: ascending modules wired to it
	busesForMod [][]int // busesForMod[module]: ascending buses wired to it

	groups     int   // PartialGroups only
	classSizes []int // KClasses only: M_1 … M_K

	failedBuses []int // buses removed by WithoutBus, ascending

	fpOnce sync.Once // guards fp, the memoized Fingerprint
	fp     uint64
}

// iotaSeq returns the shared row material 0 … k−1 the scheme
// constructors slice their adjacency rows out of.
func iotaSeq(k int) []int {
	seq := make([]int, k)
	for i := range seq {
		seq[i] = i
	}
	return seq
}

// clip returns seq[lo:hi] with its capacity clipped to the slice, or nil
// when the range is empty, so rows satisfy the accessor contract
// (append reallocates; empty rows are nil).
func clip(seq []int, lo, hi int) []int {
	if lo >= hi {
		return nil
	}
	return seq[lo:hi:hi]
}

// packBusLists builds a Network from per-bus adjacency rows (each
// strictly ascending in [0, m)). Rows are copied into one shared backing
// array and the per-module transpose is derived in O(E); the input rows
// are not retained.
func packBusLists(n, m, b int, scheme Scheme, busLists [][]int) *Network {
	total := 0
	for _, row := range busLists {
		total += len(row)
	}
	cells := make([]int, 2*total)
	busCells, modCells := cells[:total], cells[total:]
	nw := &Network{n: n, m: m, b: b, scheme: scheme}
	nw.modsOnBus = make([][]int, b)
	counts := make([]int, m)
	cur := 0
	for i, row := range busLists {
		lo := cur
		for _, j := range row {
			busCells[cur] = j
			cur++
			counts[j]++
		}
		nw.modsOnBus[i] = clip(busCells, lo, cur)
	}
	offs := make([]int, m+1)
	for j := 0; j < m; j++ {
		offs[j+1] = offs[j] + counts[j]
		counts[j] = 0 // reused as the fill cursor below
	}
	// Bus rows are visited in ascending bus order, so each module's bus
	// list comes out ascending without a sort.
	for i, row := range busLists {
		for _, j := range row {
			modCells[offs[j]+counts[j]] = i
			counts[j]++
		}
	}
	nw.busesForMod = make([][]int, m)
	for j := 0; j < m; j++ {
		nw.busesForMod[j] = clip(modCells, offs[j], offs[j+1])
	}
	return nw
}

// checkDims validates the basic N×M×B constraints. The paper assumes
// B ≤ min(M, N) for its analysis, but its own Fig. 3 (a 3×6×4 network)
// violates that bound, so structurally any positive dimensions are
// accepted; extra buses are simply never useful.
func checkDims(n, m, b int) error {
	if n < 1 || m < 1 || b < 1 {
		return fmt.Errorf("%w: N=%d M=%d B=%d (all must be ≥ 1)", ErrBadDimensions, n, m, b)
	}
	return nil
}

// Full returns the multiple bus network with full bus–memory connection:
// every module is wired to all B buses (paper Fig. 1). Every bus shares
// one module row and every module one bus row, so storage is O(M+B).
func Full(n, m, b int) (*Network, error) {
	if err := checkDims(n, m, b); err != nil {
		return nil, err
	}
	seq := iotaSeq(max(m, b))
	allMods, allBuses := clip(seq, 0, m), clip(seq, 0, b)
	nw := &Network{n: n, m: m, b: b, scheme: SchemeFull}
	nw.modsOnBus = make([][]int, b)
	for i := range nw.modsOnBus {
		nw.modsOnBus[i] = allMods
	}
	nw.busesForMod = make([][]int, m)
	for j := range nw.busesForMod {
		nw.busesForMod[j] = allBuses
	}
	return nw, nil
}

// SingleBus returns the multiple bus network with single bus–memory
// connection (paper Fig. 4): module j is wired only to bus
// ⌊j·B/M⌋, which distributes the M modules over the B buses as evenly as
// possible (exactly M/B per bus when B divides M, as in the paper's
// Table IV where each bus carries N/B modules). Bus rows are contiguous
// ranges of one shared module sequence, so storage is O(M+B).
func SingleBus(n, m, b int) (*Network, error) {
	if err := checkDims(n, m, b); err != nil {
		return nil, err
	}
	seq := iotaSeq(max(m, b))
	nw := &Network{n: n, m: m, b: b, scheme: SchemeSingleBus}
	nw.modsOnBus = make([][]int, b)
	for i := 0; i < b; i++ {
		// Modules j with ⌊j·b/m⌋ = i form the range [⌈i·m/b⌉, ⌈(i+1)·m/b⌉).
		lo := (i*m + b - 1) / b
		hi := ((i+1)*m + b - 1) / b
		nw.modsOnBus[i] = clip(seq, lo, hi)
	}
	nw.busesForMod = make([][]int, m)
	for j := 0; j < m; j++ {
		i := j * b / m
		nw.busesForMod[j] = clip(seq, i, i+1)
	}
	return nw, nil
}

// PartialGroups returns Lang et al.'s partial bus network (paper Fig. 2):
// modules and buses are split into g equal groups; group q's M/g modules
// are wired to its B/g buses. g must divide both M and B. All buses of a
// group share one module row and all its modules one bus row, so storage
// is O(M+B).
func PartialGroups(n, m, b, g int) (*Network, error) {
	if err := checkDims(n, m, b); err != nil {
		return nil, err
	}
	if g < 1 || m%g != 0 || b%g != 0 {
		return nil, fmt.Errorf("%w: g=%d must divide M=%d and B=%d", ErrBadGrouping, g, m, b)
	}
	mg, bg := m/g, b/g
	seq := iotaSeq(max(m, b))
	nw := &Network{n: n, m: m, b: b, scheme: SchemePartialGroups, groups: g}
	nw.modsOnBus = make([][]int, b)
	nw.busesForMod = make([][]int, m)
	for q := 0; q < g; q++ {
		modRow := clip(seq, q*mg, (q+1)*mg)
		busRow := clip(seq, q*bg, (q+1)*bg)
		for i := q * bg; i < (q+1)*bg; i++ {
			nw.modsOnBus[i] = modRow
		}
		for j := q * mg; j < (q+1)*mg; j++ {
			nw.busesForMod[j] = busRow
		}
	}
	return nw, nil
}

// KClasses returns the paper's proposed partial bus network with K
// classes. classSizes[j−1] is M_j, the number of modules in class C_j for
// 1 ≤ j ≤ K (K = len(classSizes) ≤ B); Σ M_j = M. Modules are laid out in
// class order (class C_1 first). Class C_j modules are wired to buses
// 1 … j+B−K (paper Fig. 3), so C_K sees all buses and C_1 sees B−K+1.
// Class bus rows are prefixes and bus module rows suffixes of one shared
// index sequence, so storage is O(M+B).
func KClasses(n, b int, classSizes []int) (*Network, error) {
	k := len(classSizes)
	if k == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadGrouping)
	}
	if k > b {
		return nil, fmt.Errorf("%w: K=%d exceeds B=%d", ErrBadGrouping, k, b)
	}
	m := 0
	for j, sz := range classSizes {
		if sz < 0 {
			return nil, fmt.Errorf("%w: class C_%d has negative size %d", ErrBadGrouping, j+1, sz)
		}
		m += sz
	}
	if m == 0 {
		return nil, fmt.Errorf("%w: all classes empty", ErrBadGrouping)
	}
	if err := checkDims(n, m, b); err != nil {
		return nil, err
	}
	seq := iotaSeq(max(m, b))
	nw := &Network{
		n: n, m: m, b: b,
		scheme:     SchemeKClasses,
		classSizes: append([]int(nil), classSizes...),
	}
	// classStart[c] is the first module of 1-based class c+1.
	classStart := make([]int, k+1)
	for c, sz := range classSizes {
		classStart[c+1] = classStart[c] + sz
	}
	nw.busesForMod = make([][]int, m)
	for c := 1; c <= k; c++ {
		busRow := clip(seq, 0, c+b-k) // class C_c is wired to buses 1 … c+B−K
		for j := classStart[c-1]; j < classStart[c]; j++ {
			nw.busesForMod[j] = busRow
		}
	}
	nw.modsOnBus = make([][]int, b)
	for i := 0; i < b; i++ {
		// Bus i+1 (1-based) reaches classes c with c+B−K ≥ i+1, i.e. the
		// module suffix starting at the first module of class K−B+i+1.
		first := k - b + i + 1
		if first < 1 {
			first = 1
		}
		nw.modsOnBus[i] = clip(seq, classStart[first-1], m)
	}
	return nw, nil
}

// EvenKClasses is a convenience wrapper for the configuration used in the
// paper's Table VI: K classes of M/K modules each. K must divide M.
func EvenKClasses(n, m, b, k int) (*Network, error) {
	if k < 1 || m%k != 0 {
		return nil, fmt.Errorf("%w: K=%d must divide M=%d", ErrBadGrouping, k, m)
	}
	sizes := make([]int, k)
	for j := range sizes {
		sizes[j] = m / k
	}
	return KClasses(n, b, sizes)
}

// Custom returns a network with an arbitrary bus–module wiring.
// conn[i][j] reports whether bus i reaches module j; all rows must share
// one length, and every module must be wired to at least one bus. Only
// the set cells are retained — storage is proportional to connections.
func Custom(n int, conn [][]bool) (*Network, error) {
	b := len(conn)
	if n < 1 || b < 1 || len(conn[0]) < 1 {
		return nil, fmt.Errorf("%w: N=%d B=%d", ErrBadDimensions, n, b)
	}
	m := len(conn[0])
	busLists := make([][]int, b)
	for i, row := range conn {
		if len(row) != m {
			return nil, fmt.Errorf("%w: row %d has %d modules, row 0 has %d",
				ErrBadDimensions, i, len(row), m)
		}
		for j, c := range row {
			if c {
				busLists[i] = append(busLists[i], j)
			}
		}
	}
	return customFromBusLists(n, m, busLists)
}

// customFromBusLists packs per-bus adjacency rows into a custom-scheme
// network, enforcing the every-module-reachable invariant. Shared by
// Custom and ReadWiring so file parsing never materializes a dense
// matrix.
func customFromBusLists(n, m int, busLists [][]int) (*Network, error) {
	nw := packBusLists(n, m, len(busLists), SchemeCustom, busLists)
	for j := 0; j < m; j++ {
		if len(nw.busesForMod[j]) == 0 {
			return nil, fmt.Errorf("%w: module %d", ErrDisconnected, j)
		}
	}
	return nw, nil
}

// N returns the number of processors.
func (nw *Network) N() int { return nw.n }

// M returns the number of memory modules.
func (nw *Network) M() int { return nw.m }

// B returns the number of (surviving) buses.
func (nw *Network) B() int { return nw.b }

// Scheme returns the connection scheme this network was built with.
func (nw *Network) Scheme() Scheme { return nw.scheme }

// Groups returns g for a PartialGroups network and 0 otherwise.
func (nw *Network) Groups() int { return nw.groups }

// ClassSizes returns a copy of M_1 … M_K for a KClasses network and nil
// otherwise.
func (nw *Network) ClassSizes() []int {
	if nw.classSizes == nil {
		return nil
	}
	return append([]int(nil), nw.classSizes...)
}

// FailedBuses returns the original indices of buses removed by
// WithoutBus, in ascending order, or nil for a pristine network.
func (nw *Network) FailedBuses() []int {
	if nw.failedBuses == nil {
		return nil
	}
	return append([]int(nil), nw.failedBuses...)
}

// Connected reports whether bus i is wired to module j, by binary search
// over the shorter of the two adjacency rows.
func (nw *Network) Connected(bus, module int) (bool, error) {
	if bus < 0 || bus >= nw.b {
		return false, fmt.Errorf("%w: %d (B=%d)", ErrBusOutOfRange, bus, nw.b)
	}
	if module < 0 || module >= nw.m {
		return false, fmt.Errorf("%w: %d (M=%d)", ErrModOutOfRange, module, nw.m)
	}
	buses, mods := nw.busesForMod[module], nw.modsOnBus[bus]
	if len(buses) <= len(mods) {
		_, ok := slices.BinarySearch(buses, bus)
		return ok, nil
	}
	_, ok := slices.BinarySearch(mods, module)
	return ok, nil
}

// BusesForModule returns the ascending list of buses wired to module j.
// An out-of-range module yields nil. The slice is the adjacency row
// itself — shared, read-only; callers must not modify it.
func (nw *Network) BusesForModule(j int) []int {
	if j < 0 || j >= nw.m {
		return nil
	}
	return nw.busesForMod[j]
}

// ModulesOnBus returns the ascending list of modules wired to bus i.
// An out-of-range bus yields nil. The slice is the adjacency row
// itself — shared, read-only; callers must not modify it.
func (nw *Network) ModulesOnBus(i int) []int {
	if i < 0 || i >= nw.b {
		return nil
	}
	return nw.modsOnBus[i]
}

// ClassOf returns the 1-based class index of module j in a KClasses
// network.
func (nw *Network) ClassOf(j int) (int, error) {
	if nw.scheme != SchemeKClasses {
		return 0, fmt.Errorf("topology: ClassOf on %v", nw.scheme)
	}
	if j < 0 || j >= nw.m {
		return 0, fmt.Errorf("%w: %d (M=%d)", ErrModOutOfRange, j, nw.m)
	}
	acc := 0
	for c, sz := range nw.classSizes {
		acc += sz
		if j < acc {
			return c + 1, nil
		}
	}
	return 0, fmt.Errorf("topology: internal error: module %d beyond class sizes", j)
}

// GroupOf returns the 0-based group index of module j in a PartialGroups
// network.
func (nw *Network) GroupOf(j int) (int, error) {
	if nw.scheme != SchemePartialGroups {
		return 0, fmt.Errorf("topology: GroupOf on %v", nw.scheme)
	}
	if j < 0 || j >= nw.m {
		return 0, fmt.Errorf("%w: %d (M=%d)", ErrModOutOfRange, j, nw.m)
	}
	return j / (nw.m / nw.groups), nil
}

// NumConnections returns the total connection count of the network:
// B·N processor connections (every processor on every bus) plus one
// connection per wired bus–module pair. This is the cost metric of the
// paper's Table I.
func (nw *Network) NumConnections() int {
	return nw.b*nw.n + nw.MemoryConnections()
}

// MemoryConnections returns the number of bus–module connections only.
func (nw *Network) MemoryConnections() int {
	total := 0
	for i := range nw.modsOnBus {
		total += len(nw.modsOnBus[i])
	}
	return total
}

// BusLoad returns the electrical load of bus i: the number of devices
// wired to it, N processors plus the modules on the bus (Table I).
func (nw *Network) BusLoad(i int) (int, error) {
	if i < 0 || i >= nw.b {
		return 0, fmt.Errorf("%w: %d (B=%d)", ErrBusOutOfRange, i, nw.b)
	}
	return nw.n + len(nw.ModulesOnBus(i)), nil
}

// MaxBusLoad returns the largest per-bus load, the figure of merit for
// bus drive requirements.
func (nw *Network) MaxBusLoad() int {
	maxLoad := 0
	for i := 0; i < nw.b; i++ {
		load, _ := nw.BusLoad(i)
		if load > maxLoad {
			maxLoad = load
		}
	}
	return maxLoad
}

// ModuleFaultTolerance returns the number of bus failures module j can
// tolerate while remaining accessible: (buses wired to j) − 1.
func (nw *Network) ModuleFaultTolerance(j int) (int, error) {
	if j < 0 || j >= nw.m {
		return 0, fmt.Errorf("%w: %d (M=%d)", ErrModOutOfRange, j, nw.m)
	}
	return len(nw.BusesForModule(j)) - 1, nil
}

// FaultToleranceDegree returns the degree of fault tolerance of the whole
// network: the largest f such that after any f bus failures every module
// is still reachable. It equals min over modules of
// ModuleFaultTolerance, reproducing Table I's column: B−1 (full),
// 0 (single), B/g−1 (partial), B−K (K classes).
func (nw *Network) FaultToleranceDegree() int {
	deg := nw.b // upper bound; lowered below
	for j := 0; j < nw.m; j++ {
		d := len(nw.BusesForModule(j)) - 1
		if d < deg {
			deg = d
		}
	}
	return deg
}

// WithoutBus returns a copy of the network with bus i removed (a bus
// failure). The returned network has B−1 buses; modules that lose their
// last bus remain present but inaccessible (see InaccessibleModules).
// The removed bus's original index is recorded in FailedBuses. The copy
// is rebuilt in O(connections) and shares no wiring storage with the
// receiver.
func (nw *Network) WithoutBus(i int) (*Network, error) {
	if i < 0 || i >= nw.b {
		return nil, fmt.Errorf("%w: %d (B=%d)", ErrBusOutOfRange, i, nw.b)
	}
	if nw.b == 1 {
		return nil, fmt.Errorf("%w: cannot remove the last bus", ErrBadDimensions)
	}
	busLists := make([][]int, 0, nw.b-1)
	busLists = append(busLists, nw.modsOnBus[:i]...)
	busLists = append(busLists, nw.modsOnBus[i+1:]...)
	deg := packBusLists(nw.n, nw.m, nw.b-1, nw.scheme, busLists)
	deg.groups = nw.groups
	deg.classSizes = nw.ClassSizes()
	// Map the removed index back to the original bus numbering.
	orig := i
	for _, f := range nw.failedBuses {
		if f <= orig {
			orig++
		}
	}
	deg.failedBuses = append(append([]int(nil), nw.failedBuses...), orig)
	slices.Sort(deg.failedBuses)
	return deg, nil
}

// InaccessibleModules returns the modules wired to no surviving bus, in
// ascending order. Empty for every pristine scheme network.
func (nw *Network) InaccessibleModules() []int {
	var out []int
	for j := 0; j < nw.m; j++ {
		if len(nw.BusesForModule(j)) == 0 {
			out = append(out, j)
		}
	}
	return out
}

// Validate re-checks structural invariants in O(connections).
// Constructors always return valid networks; Validate exists for
// defensive use after surgery. analytic.Classify calls it only for
// custom, parsed (ReadWiring) and degraded (WithoutBus) wirings; a
// pristine scheme network is classified from its constructor parameters
// without it.
func (nw *Network) Validate() error {
	if nw.n < 1 || nw.m < 1 || nw.b < 1 {
		return fmt.Errorf("%w: N=%d M=%d B=%d", ErrBadDimensions, nw.n, nw.m, nw.b)
	}
	if len(nw.modsOnBus) != nw.b {
		return fmt.Errorf("%w: adjacency has %d bus rows, B=%d", ErrBadDimensions, len(nw.modsOnBus), nw.b)
	}
	if len(nw.busesForMod) != nw.m {
		return fmt.Errorf("%w: adjacency has %d module rows, M=%d", ErrBadDimensions, len(nw.busesForMod), nw.m)
	}
	busTotal := 0
	for i, row := range nw.modsOnBus {
		for k, j := range row {
			if j < 0 || j >= nw.m {
				return fmt.Errorf("%w: bus %d lists module %d, M=%d", ErrModOutOfRange, i, j, nw.m)
			}
			if k > 0 && row[k-1] >= j {
				return fmt.Errorf("%w: bus %d row not strictly ascending at %d", ErrBadDimensions, i, k)
			}
		}
		busTotal += len(row)
	}
	modTotal := 0
	for j, row := range nw.busesForMod {
		for k, i := range row {
			if i < 0 || i >= nw.b {
				return fmt.Errorf("%w: module %d lists bus %d, B=%d", ErrBusOutOfRange, j, i, nw.b)
			}
			if k > 0 && row[k-1] >= i {
				return fmt.Errorf("%w: module %d row not strictly ascending at %d", ErrBadDimensions, j, k)
			}
		}
		modTotal += len(row)
	}
	if busTotal != modTotal {
		return fmt.Errorf("%w: %d connections per bus rows vs %d per module rows",
			ErrBadDimensions, busTotal, modTotal)
	}
	return nil
}

// Equal reports whether two networks have identical dimensions and
// wiring (scheme labels are ignored). Sorted adjacency rows are a
// canonical form of the wiring, so comparing them row by row is exact
// and costs O(connections), not O(B·M).
func (nw *Network) Equal(other *Network) bool {
	if other == nil || nw.n != other.n || nw.m != other.m || nw.b != other.b {
		return false
	}
	for i := range nw.modsOnBus {
		if !slices.Equal(nw.modsOnBus[i], other.modsOnBus[i]) {
			return false
		}
	}
	return true
}

// String describes the network compactly,
// e.g. "3×6×4 partial bus network with K classes".
func (nw *Network) String() string {
	s := fmt.Sprintf("%d×%d×%d %v", nw.n, nw.m, nw.b, nw.scheme)
	if nw.scheme == SchemePartialGroups {
		s += fmt.Sprintf(" (g=%d)", nw.groups)
	}
	if nw.scheme == SchemeKClasses {
		s += fmt.Sprintf(" (K=%d)", len(nw.classSizes))
	}
	if len(nw.failedBuses) > 0 {
		s += fmt.Sprintf(" [failed buses %v]", nw.failedBuses)
	}
	return s
}
