package analytic

import (
	"bytes"
	"errors"
	"testing"

	"multibus/internal/topology"
)

// FuzzClassifyWiring drives the general Classify path, the one custom,
// parsed and degraded wirings take, with arbitrary wiring files and an
// optional bus failure (fail < B removes that bus). Classify must not
// panic, must fail only with a classified error, and a structure it
// returns must account for every bus and every reachable module exactly
// once.
func FuzzClassifyWiring(f *testing.F) {
	seeds := []func() (*topology.Network, error){
		func() (*topology.Network, error) { return topology.Full(4, 6, 3) },
		func() (*topology.Network, error) { return topology.SingleBus(4, 3, 5) },
		func() (*topology.Network, error) { return topology.PartialGroups(4, 6, 4, 2) },
		func() (*topology.Network, error) { return topology.KClasses(3, 4, []int{2, 2, 2}) },
		func() (*topology.Network, error) { return topology.KClasses(4, 5, []int{0, 3, 0, 1}) },
		func() (*topology.Network, error) {
			nw, err := topology.Full(4, 4, 3)
			if err != nil {
				return nil, err
			}
			return nw.WithoutBus(1)
		},
	}
	for _, build := range seeds {
		nw, err := build()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nw.WriteWiring(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(255))
		f.Add(buf.Bytes(), uint8(0))
	}
	f.Fuzz(func(t *testing.T, wiring []byte, fail uint8) {
		nw, err := topology.ReadWiring(bytes.NewReader(wiring))
		if err != nil {
			return
		}
		if int(fail) < nw.B() && nw.B() > 1 {
			if nw, err = nw.WithoutBus(int(fail)); err != nil {
				t.Fatalf("WithoutBus(%d): %v", fail, err)
			}
		}
		s, err := Classify(nw)
		if err != nil {
			if !classifiedError(err) {
				t.Fatalf("Classify(%v): unclassified error %v", nw, err)
			}
			return
		}
		checkStructureCoverage(t, nw, s)
		if _, err := BandwidthStructure(s, nw.B(), 0.5); err != nil {
			t.Fatalf("%v classified as %+v but does not evaluate: %v", nw, s, err)
		}
	})
}

// classifiedError reports whether err wraps ErrNoClosedForm or one of
// the topology sentinels.
func classifiedError(err error) bool {
	for _, target := range []error{
		ErrNoClosedForm,
		topology.ErrBadDimensions, topology.ErrBadGrouping, topology.ErrBusOutOfRange,
		topology.ErrModOutOfRange, topology.ErrDisconnected,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// checkStructureCoverage asserts that s partitions nw: every bus lies
// in exactly one group (or bus order position), every module with a
// surviving bus in exactly one group or class, and stranded modules in
// none. Each module must also reach every bus of its group, or exactly
// its class's prefix length of buses.
func checkStructureCoverage(t *testing.T, nw *topology.Network, s *Structure) {
	t.Helper()
	m, b := nw.M(), nw.B()
	switch s.Kind {
	case StructureIndependentGroups:
		if len(s.ModuleGroups) != m || len(s.BusGroups) != b {
			t.Fatalf("%v: %d module and %d bus group entries", nw, len(s.ModuleGroups), len(s.BusGroups))
		}
		counts := make([]GroupSpec, len(s.Groups))
		for i, g := range s.BusGroups {
			if g < 0 || g >= len(counts) {
				t.Fatalf("%v: bus %d in group %d of %d", nw, i, g, len(counts))
			}
			counts[g].Buses++
		}
		for j, g := range s.ModuleGroups {
			buses := nw.BusesForModule(j)
			if len(buses) == 0 {
				if g != -1 {
					t.Fatalf("%v: stranded module %d in group %d", nw, j, g)
				}
				continue
			}
			if g < 0 || g >= len(counts) {
				t.Fatalf("%v: module %d in group %d of %d", nw, j, g, len(counts))
			}
			if len(buses) != s.Groups[g].Buses {
				t.Fatalf("%v: module %d has %d buses, group %d has %d", nw, j, len(buses), g, s.Groups[g].Buses)
			}
			for _, bus := range buses {
				if s.BusGroups[bus] != g {
					t.Fatalf("%v: module %d (group %d) wired to bus %d of group %d", nw, j, g, bus, s.BusGroups[bus])
				}
			}
			counts[g].Modules++
		}
		for g := range counts {
			if counts[g] != s.Groups[g] {
				t.Fatalf("%v: group %d is %+v, members count %+v", nw, g, s.Groups[g], counts[g])
			}
		}
	case StructurePrefixClasses:
		seen := make([]bool, b)
		for _, bus := range s.BusOrder {
			if bus < 0 || bus >= b || seen[bus] {
				t.Fatalf("%v: BusOrder %v is not a permutation of %d buses", nw, s.BusOrder, b)
			}
			seen[bus] = true
		}
		if len(s.BusOrder) != b || len(s.ModuleClasses) != m {
			t.Fatalf("%v: %d bus order and %d module class entries", nw, len(s.BusOrder), len(s.ModuleClasses))
		}
		sizes := make([]int, len(s.Classes))
		for j, c := range s.ModuleClasses {
			if len(nw.BusesForModule(j)) == 0 {
				if c != -1 {
					t.Fatalf("%v: stranded module %d in class %d", nw, j, c)
				}
				continue
			}
			if c < 0 || c >= len(sizes) {
				t.Fatalf("%v: module %d in class %d of %d", nw, j, c, len(sizes))
			}
			if got, want := len(nw.BusesForModule(j)), s.Classes[c].PrefixLen; got != want {
				t.Fatalf("%v: module %d has %d buses, class %d prefix %d", nw, j, got, c, want)
			}
			sizes[c]++
		}
		for c, cl := range s.Classes {
			if sizes[c] != cl.Size {
				t.Fatalf("%v: class %d is %+v, members count %d", nw, c, cl, sizes[c])
			}
		}
	default:
		t.Fatalf("%v: unknown structure kind %v", nw, s.Kind)
	}
}
