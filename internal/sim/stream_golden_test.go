package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"multibus/internal/analytic"
	"multibus/internal/arbiter"
	"multibus/internal/hrm"
	"multibus/internal/topology"
	"multibus/internal/workload"
)

var updateStream = flag.Bool("update", false, "rewrite testdata/stream.golden")

// streamNetwork builds one topology of the golden matrix, plus an
// explicit stage-2 assigner when the case overrides the default
// (assigners carry round-robin state, so each case builds its own).
type streamNetwork struct {
	name  string
	build func(t *testing.T) (*topology.Network, arbiter.BusAssigner)
}

// streamWorkload builds a fresh generator (trace replay has a cursor).
type streamWorkload struct {
	name  string
	build func() workload.Generator
}

// must unwraps a constructor result; the matrix is fixed, so a failure
// is a broken fixture, not a test outcome.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// irregularWiring is a 16-module wiring outside every closed-form
// family, so the default assigner is the greedy fallback.
func irregularWiring(t *testing.T) *topology.Network {
	t.Helper()
	conn := make([][]bool, 4)
	for i := range conn {
		conn[i] = make([]bool, 16)
	}
	for j := 0; j < 10; j++ {
		conn[0][j] = true
	}
	for j := 5; j < 16; j++ {
		conn[1][j] = true
	}
	for j := 0; j < 16; j += 3 {
		conn[2][j] = true
	}
	conn[3][1], conn[3][12], conn[3][13], conn[3][15] = true, true, true, true
	nw := must(topology.Custom(16, conn))
	if _, err := analytic.Classify(nw); !errors.Is(err, analytic.ErrNoClosedForm) {
		t.Fatalf("irregular wiring classified (err=%v); the greedy case needs a wiring without a closed form", err)
	}
	return nw
}

var streamNetworks = []streamNetwork{
	{"full", func(t *testing.T) (*topology.Network, arbiter.BusAssigner) {
		return must(topology.Full(16, 16, 4)), nil
	}},
	{"single", func(t *testing.T) (*topology.Network, arbiter.BusAssigner) {
		return must(topology.SingleBus(16, 16, 4)), nil
	}},
	{"partial", func(t *testing.T) (*topology.Network, arbiter.BusAssigner) {
		return must(topology.PartialGroups(16, 16, 4, 2)), nil
	}},
	{"kclasses", func(t *testing.T) (*topology.Network, arbiter.BusAssigner) {
		return must(topology.EvenKClasses(16, 16, 4, 4)), nil
	}},
	{"custom", func(t *testing.T) (*topology.Network, arbiter.BusAssigner) {
		return irregularWiring(t), nil
	}},
	{"full+greedy", func(t *testing.T) (*topology.Network, arbiter.BusAssigner) {
		nw := must(topology.Full(16, 16, 4))
		return nw, must(arbiter.NewGreedyAssigner(nw))
	}},
	{"single-bus1", func(t *testing.T) (*topology.Network, arbiter.BusAssigner) {
		nw := must(must(topology.SingleBus(16, 16, 4)).WithoutBus(1))
		if len(nw.InaccessibleModules()) == 0 {
			t.Fatal("single network without bus 1 strands no module")
		}
		return nw, nil
	}},
}

var streamWorkloads = []streamWorkload{
	{"uniform", func() workload.Generator {
		return must(workload.NewUniform(16, 16, 1.0))
	}},
	{"hier", func() workload.Generator {
		return must(workload.NewHierarchical(must(hrm.TwoLevelPaper(16, 4, 0.6, 0.3, 0.1)), 0.5))
	}},
	{"hier-noremote", func() workload.Generator {
		// Zero remote fraction: every processor has zero-probability
		// modules on both sides of its cluster.
		return must(workload.NewHierarchical(must(hrm.TwoLevelPaper(16, 4, 0.7, 0.3, 0)), 1.0))
	}},
	{"hotspot", func() workload.Generator {
		return must(workload.NewHotSpot(16, 16, 0.8, 3, 0.5))
	}},
	{"hotspot-all", func() workload.Generator {
		// Every request to module 5: zero-probability modules lead and
		// trail the distribution.
		return must(workload.NewHotSpot(16, 16, 0.9, 5, 1.0))
	}},
	{"zipf", func() workload.Generator {
		return must(workload.NewZipf(16, 16, 0.9, 1.2))
	}},
	{"trace", func() workload.Generator {
		src := must(workload.NewHierarchical(must(hrm.TwoLevelPaper(16, 4, 0.6, 0.3, 0.1)), 0.7))
		cycles := must(workload.Record(src, 37, NewSeededRand(99)))
		return must(workload.NewTrace(16, 16, cycles))
	}},
}

// resultDigest hashes every measured field of a Result bit for bit.
func resultDigest(res *Result) []byte {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(res.Cycles))
	word(uint64(res.Mode))
	float(res.Bandwidth)
	float(res.BandwidthCI95)
	for _, v := range []int64{res.Offered, res.Accepted, res.NewRequests,
		res.MemoryBlocked, res.BusBlocked, res.StrandedBlocked, res.ModuleBusyBlocked} {
		word(uint64(v))
	}
	float(res.AcceptanceProbability)
	float(res.BusBusyMean)
	float(res.BusUtilization)
	float(res.MeanWaitCycles)
	for _, v := range res.ModuleServiceRate {
		float(v)
	}
	for _, v := range res.BusServiceRate {
		float(v)
	}
	for _, v := range res.ProcessorAccepted {
		word(uint64(v))
	}
	for _, v := range res.ProcessorOffered {
		word(uint64(v))
	}
	return h.Sum(nil)[:12]
}

// renderStreamGolden runs the whole matrix and renders one line per
// simulation and per recorded trace.
func renderStreamGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# Simulator stream digest: every Result field, bit for bit, over a")
	fmt.Fprintln(&buf, "# matrix of assigners, modes, stage-1 policies, service times and")
	fmt.Fprintln(&buf, "# workloads, plus workload.Record output. Regenerate with:")
	fmt.Fprintln(&buf, "#   go test ./internal/sim -run TestStreamGolden -update")
	fmt.Fprintln(&buf, "# A diff here means the simulator's random stream or its mapping to")
	fmt.Fprintln(&buf, "# modules, buses and winners changed.")
	seed := int64(0)
	for _, nws := range streamNetworks {
		for _, wls := range streamWorkloads {
			for _, mode := range []Mode{ModeDrop, ModeResubmit} {
				for _, policy := range []arbiter.Stage1Policy{arbiter.PolicyRandom, arbiter.PolicyRoundRobin} {
					for _, service := range []int{1, 3} {
						nw, assigner := nws.build(t)
						res, err := Run(Config{
							Topology:            nw,
							Workload:            wls.build(),
							Assigner:            assigner,
							Stage1Policy:        policy,
							Mode:                mode,
							Cycles:              400,
							Seed:                seed,
							ModuleServiceCycles: service,
						})
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&buf, "%s/%s/%s/%s/k=%d seed=%d bw=%.6f ci=%.6f off=%d acc=%d sha=%x\n",
							nws.name, wls.name, mode, policy, service, seed,
							res.Bandwidth, res.BandwidthCI95, res.Offered, res.Accepted, resultDigest(res))
						seed++
					}
				}
			}
		}
	}
	for _, wls := range streamWorkloads {
		for _, s := range []int64{0, 1, 42} {
			gen := wls.build()
			cycles := must(workload.Record(gen, 64, NewSeededRand(s)))
			var trace bytes.Buffer
			if err := workload.WriteTrace(&trace, gen.NProcessors(), gen.MModules(), cycles); err != nil {
				t.Fatal(err)
			}
			requests := 0
			for _, c := range cycles {
				requests += len(c)
			}
			fmt.Fprintf(&buf, "record/%s seed=%d requests=%d sha=%x\n",
				wls.name, s, requests, sha256.Sum256(trace.Bytes()))
		}
	}
	return buf.Bytes()
}

// TestStreamGolden pins the simulator's output bit for bit. Performance
// work on the engine, the arbiters, the workload samplers or the RNG
// must leave this file unchanged: same draws, in the same order, mapped
// to the same modules, buses and winners.
func TestStreamGolden(t *testing.T) {
	got := renderStreamGolden(t)
	path := filepath.Join("testdata", "stream.golden")
	if *updateStream {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("simulator stream drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulator stream drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
