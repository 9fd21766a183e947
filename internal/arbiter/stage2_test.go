package arbiter

import (
	"slices"
	"testing"
	"testing/quick"

	"multibus/internal/rng"
	"multibus/internal/topology"
)

// assign runs one Assign call and returns the granted modules,
// ascending. It panics if a bus is granted twice, which no assigner may
// do.
func assign(a BusAssigner, requested []int, r *rng.Rand) []int {
	grants := a.Assign(requested, r)
	mods := make([]int, 0, len(grants))
	buses := make(map[int]bool, len(grants))
	for _, g := range grants {
		if buses[g.Bus] {
			panic("bus granted twice")
		}
		buses[g.Bus] = true
		mods = append(mods, g.Module)
	}
	slices.Sort(mods)
	return mods
}

// assertGrantInvariants checks universal stage-2 properties: granted is a
// sorted duplicate-free subset of requested.
func assertGrantInvariants(t *testing.T, requested, granted []int) {
	t.Helper()
	req := make(map[int]bool, len(requested))
	for _, j := range requested {
		req[j] = true
	}
	seen := make(map[int]bool, len(granted))
	for i, j := range granted {
		if !req[j] {
			t.Fatalf("granted module %d was not requested", j)
		}
		if seen[j] {
			t.Fatalf("module %d granted twice", j)
		}
		seen[j] = true
		if i > 0 && granted[i-1] > j {
			t.Fatalf("granted list not sorted: %v", granted)
		}
	}
}

func TestGroupedAssignerFullGrantsUpToB(t *testing.T) {
	// One group of 8 modules, 3 buses.
	groups := make([]int, 8)
	a, err := NewGroupedAssigner(groups, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	requested := []int{0, 2, 3, 5, 7}
	granted := assign(a, requested, nil)
	assertGrantInvariants(t, requested, granted)
	if len(granted) != 3 {
		t.Errorf("granted %d modules, want 3", len(granted))
	}
	// Fewer requests than buses: all granted.
	granted = assign(a, []int{1, 6}, nil)
	if len(granted) != 2 {
		t.Errorf("granted %d, want 2", len(granted))
	}
}

func TestGroupedAssignerRoundRobinFairness(t *testing.T) {
	// 4 modules, 1 bus, all requesting every cycle: over 4 cycles each
	// module must be served exactly once.
	a, err := NewGroupedAssigner([]int{0, 0, 0, 0}, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[int]int)
	for c := 0; c < 8; c++ {
		g := assign(a, []int{0, 1, 2, 3}, nil)
		if len(g) != 1 {
			t.Fatalf("cycle %d granted %v, want 1 module", c, g)
		}
		served[g[0]]++
	}
	for j := 0; j < 4; j++ {
		if served[j] != 2 {
			t.Errorf("module %d served %d times in 8 cycles, want 2", j, served[j])
		}
	}
}

func TestGroupedAssignerRespectsGroupBoundaries(t *testing.T) {
	// Two groups: modules 0–3 with 2 buses, modules 4–7 with 1 bus.
	groupOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	a, err := NewGroupedAssigner(groupOf, [][]int{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	requested := []int{0, 1, 2, 4, 5, 6}
	granted := assign(a, requested, nil)
	assertGrantInvariants(t, requested, granted)
	g0, g1 := 0, 0
	for _, j := range granted {
		if j < 4 {
			g0++
		} else {
			g1++
		}
	}
	if g0 != 2 || g1 != 1 {
		t.Errorf("granted %d in group 0 and %d in group 1, want 2 and 1", g0, g1)
	}
}

func TestGroupedAssignerStrandedModules(t *testing.T) {
	a, err := NewGroupedAssigner([]int{0, -1, 0}, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	granted := assign(a, []int{0, 1, 2}, nil)
	for _, j := range granted {
		if j == 1 {
			t.Error("stranded module 1 was granted a bus")
		}
	}
	// Zero-bus group grants nothing.
	b, err := NewGroupedAssigner([]int{0}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if g := assign(b, []int{0}, nil); len(g) != 0 {
		t.Errorf("zero-bus group granted %v", g)
	}
}

func TestGroupedAssignerValidation(t *testing.T) {
	if _, err := NewGroupedAssigner(nil, [][]int{{0}}); err == nil {
		t.Error("empty module map should error")
	}
	if _, err := NewGroupedAssigner([]int{0}, nil); err == nil {
		t.Error("empty bus list should error")
	}
	if _, err := NewGroupedAssigner([]int{2}, [][]int{{0}}); err == nil {
		t.Error("group index out of range should error")
	}
	// Out-of-range requested module ids are ignored, not panicking.
	a, _ := NewGroupedAssigner([]int{0, 0}, [][]int{{0}})
	if g := assign(a, []int{-3, 9}, nil); len(g) != 0 {
		t.Errorf("out-of-range requests granted %v", g)
	}
}

func TestPrefixAssignerFigure3Behaviour(t *testing.T) {
	// Fig. 3: classes C1 (modules 0,1; prefix 2), C2 (2,3; prefix 3),
	// C3 (4,5; prefix 4).
	classOf := []int{0, 0, 1, 1, 2, 2}
	prefix := []int{2, 3, 4}
	a, err := NewPrefixAssigner(classOf, prefix, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// All six modules requested: step 1 maps C1→buses {1,0}, C2→{2,1,0},
	// C3→{3,2,1,0}… with min(L,R)=2 per class: C1→buses 1,0; C2→2,1;
	// C3→3,2. Buses 0..3 have contenders {C1}, {C1,C2}, {C2,C3}, {C3}:
	// every bus busy, so 4 grants.
	r := rng.New(1, 0)
	requested := []int{0, 1, 2, 3, 4, 5}
	granted := assign(a, requested, r)
	assertGrantInvariants(t, requested, granted)
	if len(granted) != 4 {
		t.Errorf("granted %v (%d), want 4 modules", granted, len(granted))
	}
	// Only class C1 requesting: at most its prefix (2 buses) can serve.
	granted = assign(a, []int{0, 1}, r)
	if len(granted) != 2 {
		t.Errorf("C1-only: granted %v, want both modules", granted)
	}
}

func TestPrefixAssignerPaperExample(t *testing.T) {
	// Paper §III-D example: B=4, K=3, two requested modules of class C_2
	// get buses 3 and 2 (1-based). Our class C_2 has prefix j+B−K = 3, so
	// the two modules contend on 0-based buses 2 and 1 and both win.
	classOf := []int{0, 0, 1, 1, 2, 2}
	prefix := []int{2, 3, 4}
	a, err := NewPrefixAssigner(classOf, prefix, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	granted := assign(a, []int{2, 3}, rng.New(1, 0))
	if len(granted) != 2 || granted[0] != 2 || granted[1] != 3 {
		t.Errorf("granted %v, want [2 3]", granted)
	}
}

func TestPrefixAssignerBusContention(t *testing.T) {
	// Two classes with prefix 1: both compete for bus 0 every cycle; only
	// one module can win per cycle, and each wins some cycles.
	a, err := NewPrefixAssigner([]int{0, 1}, []int{1, 1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3, 0)
	wins := map[int]int{}
	for c := 0; c < 100; c++ {
		g := a.Assign([]int{0, 1}, r)
		if len(g) != 1 || g[0].Bus != 0 {
			t.Fatalf("granted %v, want exactly 1 grant on bus 0", g)
		}
		wins[g[0].Module]++
	}
	if wins[0] == 0 || wins[1] == 0 {
		t.Errorf("wins = %v, want both classes served", wins)
	}
}

func TestPrefixAssignerRandomTieBreak(t *testing.T) {
	classOf := []int{0, 1}
	prefix := []int{1, 1}
	a, err := NewPrefixAssigner(classOf, prefix, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rng.New(11, 0)
	wins := map[int]int{}
	const trials = 20000
	for c := 0; c < trials; c++ {
		g := assign(a, []int{0, 1}, rng)
		wins[g[0]]++
	}
	for j := 0; j <= 1; j++ {
		frac := float64(wins[j]) / trials
		if frac < 0.47 || frac > 0.53 {
			t.Errorf("module %d won fraction %.3f, want ≈0.5", j, frac)
		}
	}
}

func TestPrefixAssignerClassRoundRobin(t *testing.T) {
	// One class, 3 modules, prefix 1: only one served per cycle, cycling.
	a, err := NewPrefixAssigner([]int{0, 0, 0}, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1, 0)
	var got []int
	for c := 0; c < 6; c++ {
		g := assign(a, []int{0, 1, 2}, r)
		if len(g) != 1 {
			t.Fatalf("granted %v, want 1", g)
		}
		got = append(got, g[0])
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order %v, want %v", got, want)
		}
	}
}

func TestPrefixAssignerValidation(t *testing.T) {
	if _, err := NewPrefixAssigner(nil, []int{1}, []int{0}); err == nil {
		t.Error("empty modules should error")
	}
	if _, err := NewPrefixAssigner([]int{0}, nil, []int{0}); err == nil {
		t.Error("empty prefixes should error")
	}
	if _, err := NewPrefixAssigner([]int{0}, []int{1}, nil); err == nil {
		t.Error("B=0 should error")
	}
	if _, err := NewPrefixAssigner([]int{5}, []int{1}, []int{0}); err == nil {
		t.Error("class out of range should error")
	}
	if _, err := NewPrefixAssigner([]int{0}, []int{3}, []int{0, 1}); err == nil {
		t.Error("prefix beyond B should error")
	}
	a, _ := NewPrefixAssigner([]int{0, -1}, []int{1}, []int{0})
	r := rng.New(1, 0)
	if g := assign(a, []int{1}, r); len(g) != 0 {
		t.Errorf("stranded module granted %v", g)
	}
	if g := assign(a, []int{-1, 7}, r); len(g) != 0 {
		t.Errorf("out-of-range requests granted %v", g)
	}
}

func TestGreedyAssignerCustomTopology(t *testing.T) {
	// Crossing wiring with no closed form: module 0 ↔ buses {0,1},
	// module 1 ↔ buses {1,2}, module 2 ↔ bus {2}.
	conn := [][]bool{
		{true, false, false},
		{true, true, false},
		{false, true, true},
	}
	nw, err := topology.Custom(4, conn)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewGreedyAssigner(nw)
	if err != nil {
		t.Fatal(err)
	}
	// All three requested: a perfect matching exists (0→bus0/1, 1→bus1/2,
	// 2→bus2); the scarce-bus-first greedy must find all 3.
	requested := []int{0, 1, 2}
	granted := assign(a, requested, nil)
	assertGrantInvariants(t, requested, granted)
	if len(granted) != 3 {
		t.Errorf("granted %v, want all 3 (perfect matching exists)", granted)
	}
}

func TestGreedyAssignerNeverExceedsBuses(t *testing.T) {
	nw, err := topology.Full(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewGreedyAssigner(nw)
	if err != nil {
		t.Fatal(err)
	}
	requested := []int{0, 1, 2, 3, 4, 5, 6, 7}
	granted := assign(a, requested, nil)
	assertGrantInvariants(t, requested, granted)
	if len(granted) != 3 {
		t.Errorf("granted %d, want 3 (bus-limited)", len(granted))
	}
}

func TestForTopologySelectsCorrectAssigner(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*topology.Network, error)
	}{
		{"full", func() (*topology.Network, error) { return topology.Full(8, 8, 4) }},
		{"single", func() (*topology.Network, error) { return topology.SingleBus(8, 8, 4) }},
		{"partial", func() (*topology.Network, error) { return topology.PartialGroups(8, 8, 4, 2) }},
		{"kclasses", func() (*topology.Network, error) { return topology.EvenKClasses(8, 8, 4, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			a, err := ForTopology(nw)
			if err != nil {
				t.Fatal(err)
			}
			// Universal invariant under full request load.
			requested := make([]int, nw.M())
			for j := range requested {
				requested[j] = j
			}
			granted := assign(a, requested, rng.New(1, 0))
			assertGrantInvariants(t, requested, granted)
			if len(granted) > nw.B() {
				t.Errorf("granted %d > B=%d", len(granted), nw.B())
			}
			if len(granted) == 0 {
				t.Error("granted nothing under full load")
			}
		})
	}
	// Custom crossing topology falls back to greedy.
	conn := [][]bool{{true, false}, {true, true}, {false, true}}
	nw, err := topology.Custom(4, conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForTopology(nw); err != nil {
		t.Errorf("custom topology should get greedy assigner: %v", err)
	}
}

func TestAssignersPropertyGrantBounds(t *testing.T) {
	// Property: for random request subsets, every assigner grants a
	// duplicate-free subset within bus capacity.
	f := func(mask uint8, seed int64) bool {
		var requested []int
		for j := 0; j < 8; j++ {
			if mask&(1<<j) != 0 {
				requested = append(requested, j)
			}
		}
		rng := rng.New(uint64(seed), 0)
		groupOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
		ga, err := NewGroupedAssigner(groupOf, [][]int{{0, 1}, {2, 3}})
		if err != nil {
			return false
		}
		g := assign(ga, requested, rng)
		if len(g) > 4 || hasDup(g) || !isSubset(g, requested) {
			return false
		}
		classOf := []int{0, 0, 1, 1, 2, 2, 3, 3}
		pa, err := NewPrefixAssigner(classOf, []int{1, 2, 3, 4}, []int{0, 1, 2, 3})
		if err != nil {
			return false
		}
		g = assign(pa, requested, rng)
		return len(g) <= 4 && !hasDup(g) && isSubset(g, requested)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func hasDup(xs []int) bool {
	seen := map[int]bool{}
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

func isSubset(a, b []int) bool {
	set := map[int]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}
