package compute

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"multibus"
	"multibus/internal/cache"
	"multibus/internal/scenario"
	"multibus/internal/sim"
)

func buildScenario(t *testing.T, s scenario.Scenario) *scenario.Built {
	t.Helper()
	built, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return built
}

var analyzeScenario = scenario.Scenario{
	Network: scenario.Network{Scheme: scenario.SchemeFull, N: 16, B: 8},
	Model:   scenario.Model{Kind: scenario.ModelHier},
	R:       1.0,
}

// TestLocalAnalyzeMatchesFacade pins LocalBackend.Analyze, and the
// analytic half of SweepPoint, bit for bit to the multibus façade — the
// independent reference path — for every scheme and every model with a
// closed form.
func TestLocalAnalyzeMatchesFacade(t *testing.T) {
	networks := []scenario.Network{
		{Scheme: scenario.SchemeFull, N: 16, B: 8},
		{Scheme: scenario.SchemeFull, N: 16, M: 8, B: 4},
		{Scheme: scenario.SchemeSingle, N: 16, B: 4},
		{Scheme: scenario.SchemeSingle, N: 8, M: 4, B: 8},
		{Scheme: scenario.SchemePartial, N: 16, B: 8, Groups: 4},
		{Scheme: scenario.SchemeKClass, N: 16, B: 4},
		{Scheme: scenario.SchemeKClass, N: 16, B: 4, Classes: 2},
		{Scheme: scenario.SchemeKClass, N: 16, B: 3, ClassSizes: []int{4, 4, 8}},
	}
	models := []scenario.Model{
		{Kind: scenario.ModelUniform},
		{Kind: scenario.ModelHier},
		{Kind: scenario.ModelHier, Clusters: 2, AFavorite: 0.5, ACluster: 0.3, ARemote: 0.2},
		{Kind: scenario.ModelDasBhuyan, Q: 0.4},
	}
	for _, nw := range networks {
		for _, model := range models {
			for _, r := range []float64{0.25, 1} {
				s := scenario.Scenario{Network: nw, Model: model, R: r}
				built, err := s.Build()
				if err != nil {
					t.Fatalf("%+v: %v", s, err)
				}
				got, err := Local().Analyze(context.Background(), built)
				if err != nil {
					t.Fatalf("%+v: %v", s, err)
				}
				want, err := multibus.Analyze(built.Network, built.Model, r)
				if err != nil {
					t.Fatalf("%+v: façade: %v", s, err)
				}
				if *got != (Analysis{
					X:                    want.X,
					Bandwidth:            want.Bandwidth,
					CrossbarBandwidth:    want.CrossbarBandwidth,
					BusUtilization:       want.BusUtilization,
					PerformanceCostRatio: want.PerformanceCostRatio,
				}) {
					t.Errorf("%+v: LocalBackend.Analyze = %+v, façade = %+v", s, got, want)
				}
				pt, err := Local().SweepPoint(context.Background(), PointJob{Built: built})
				if err != nil {
					t.Fatalf("%+v: SweepPoint: %v", s, err)
				}
				if pt.X != want.X || pt.Bandwidth != want.Bandwidth {
					t.Errorf("%+v: SweepPoint x=%v bw=%v, façade x=%v bw=%v", s, pt.X, pt.Bandwidth, want.X, want.Bandwidth)
				}
			}
		}
	}
}

// facadeOptions spells a canonical sim block as façade options, the
// way a library user configures the same run.
func facadeOptions(s scenario.Sim) []multibus.SimOption {
	opts := []multibus.SimOption{
		multibus.WithCycles(s.Cycles),
		multibus.WithWarmup(s.Warmup),
		multibus.WithBatches(s.Batches),
		multibus.WithModuleServiceCycles(s.ServiceCycles),
		multibus.WithSeed(s.Seed),
	}
	if s.Resubmit {
		opts = append(opts, multibus.WithResubmit())
	}
	if s.RoundRobin {
		opts = append(opts, multibus.WithRoundRobinMemoryArbiters())
	}
	return opts
}

// TestLocalSimulateMatchesFacade pins LocalBackend.Simulate, and the
// simulated half of SweepPoint, bit for bit to a façade run configured
// through public options, over seeded scenarios covering every sim
// knob, the hotspot model and a nil sim block.
func TestLocalSimulateMatchesFacade(t *testing.T) {
	cases := []scenario.Scenario{
		{
			Network: scenario.Network{Scheme: scenario.SchemeFull, N: 8, B: 4},
			Model:   scenario.Model{Kind: scenario.ModelUniform}, R: 0.8,
			Sim: &scenario.Sim{Cycles: 3000, Warmup: 100, Batches: 10, Seed: 5, Resubmit: true},
		},
		{
			Network: scenario.Network{Scheme: scenario.SchemePartial, N: 8, B: 4, Groups: 2},
			Model:   scenario.Model{Kind: scenario.ModelHier}, R: 1,
			Sim: &scenario.Sim{Cycles: 2000, Seed: 9, RoundRobin: true, ServiceCycles: 2},
		},
		{
			Network: scenario.Network{Scheme: scenario.SchemeKClass, N: 8, B: 4},
			Model:   scenario.Model{Kind: scenario.ModelHotSpot, HotModule: 3, HotFraction: 0.4}, R: 0.7,
			Sim: &scenario.Sim{Cycles: 2000, Seed: 3, Resubmit: true, RoundRobin: true},
		},
		{
			Network: scenario.Network{Scheme: scenario.SchemeSingle, N: 8, B: 4},
			Model:   scenario.Model{Kind: scenario.ModelDasBhuyan, Q: 0.5}, R: 0.6,
		},
	}
	for _, s := range cases {
		built := buildScenario(t, s)
		var got *sim.Result
		capture := NewLocal(nil, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			res, err := sim.RunContext(ctx, cfg)
			got = res
			return res, err
		})
		wire, err := capture.Simulate(context.Background(), built)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		cfg, err := built.SimConfig()
		if err != nil {
			t.Fatal(err)
		}
		want, err := multibus.Simulate(built.Network, cfg.Workload, facadeOptions(built.Sim())...)
		if err != nil {
			t.Fatalf("%+v: façade: %v", s, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: LocalBackend.Simulate ran\n%+v\nfaçade ran\n%+v", s, got, want)
		}
		if wire.Bandwidth != want.Bandwidth || wire.BandwidthCI95 != want.BandwidthCI95 ||
			wire.Offered != want.Offered || wire.Accepted != want.Accepted ||
			wire.JainFairness != want.JainFairness() || wire.Mode != want.Mode.String() {
			t.Errorf("%+v: wire result %+v does not carry the façade run %+v", s, wire, want)
		}
		if built.Model == nil {
			continue // hotspot: no closed form, so no sweep point
		}
		pt, err := Local().SweepPoint(context.Background(), PointJob{Built: built, WithSim: true})
		if err != nil {
			t.Fatalf("%+v: SweepPoint: %v", s, err)
		}
		if !pt.Simulated || pt.SimBandwidth != want.Bandwidth || pt.SimCI95 != want.BandwidthCI95 {
			t.Errorf("%+v: SweepPoint sim=(%v, %v), façade (%v, %v)", s, pt.SimBandwidth, pt.SimCI95, want.Bandwidth, want.BandwidthCI95)
		}
	}
}

// TestSimulateSeamCoversSweepPoints: Simulate and a simulated sweep
// point both run through the one SimulateFunc seam.
func TestSimulateSeamCoversSweepPoints(t *testing.T) {
	var runs atomic.Int64
	be := NewLocal(nil, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		runs.Add(1)
		return sim.RunContext(ctx, cfg)
	})
	s := analyzeScenario
	s.Sim = &scenario.Sim{Cycles: 1000, Seed: 2}
	built := buildScenario(t, s)
	if _, err := be.Simulate(context.Background(), built); err != nil {
		t.Fatal(err)
	}
	if _, err := be.SweepPoint(context.Background(), PointJob{Built: built, Axis: "full", Model: "hier", WithSim: true}); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("SimulateFunc ran %d times for one Simulate and one simulated sweep point, want 2", n)
	}
}

func TestLocalAnalyzeRejectsCrossbar(t *testing.T) {
	s := analyzeScenario
	s.Network.Scheme = scenario.SchemeCrossbar
	built := buildScenario(t, s)
	if _, err := Local().Analyze(context.Background(), built); err == nil {
		t.Fatal("crossbar analyze succeeded; want classified error")
	}
}

// TestPointJSONRoundTripByteIdentical pins the wire property the
// cluster layer depends on: a Point decoded from a peer's JSON
// re-encodes to the same bytes (encoding/json round-trips float64
// exactly via the shortest-representation rule).
func TestPointJSONRoundTripByteIdentical(t *testing.T) {
	built := buildScenario(t, analyzeScenario)
	pt, err := Local().SweepPoint(context.Background(), PointJob{Built: built, Axis: "full", Model: "hier"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Point
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip changed bytes:\n first = %s\nsecond = %s", first, second)
	}
}

// countingBackend wraps the local backend, counting SweepPoint calls.
type countingBackend struct {
	Backend
	calls atomic.Int64
}

func (c *countingBackend) SweepPoint(ctx context.Context, jb PointJob) (Point, error) {
	c.calls.Add(1)
	return c.Backend.SweepPoint(ctx, jb)
}

func TestMemoPointComputesOncePerKey(t *testing.T) {
	memo, err := cache.New(16)
	if err != nil {
		t.Fatal(err)
	}
	built := buildScenario(t, analyzeScenario)
	jb := PointJob{Built: built, Axis: "full", Model: "hier"}
	be := &countingBackend{Backend: Local()}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := MemoPoint(context.Background(), memo, be, jb); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := be.calls.Load(); got != 1 {
		t.Errorf("8 concurrent MemoPoint calls computed %d times, want 1", got)
	}
}

func TestForwardedMarker(t *testing.T) {
	ctx := context.Background()
	if Forwarded(ctx) {
		t.Fatal("fresh context reports forwarded")
	}
	if !Forwarded(WithForwarded(ctx)) {
		t.Fatal("marked context does not report forwarded")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestLocalAnalyzeAllocsInterned bounds the analyze path of an interned
// shape at N = M = 512, B = 64: the built scenario carries its
// classification, so the only allocation left is the *Analysis itself.
func TestLocalAnalyzeAllocsInterned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled evaluators under the race detector")
	}
	for _, nw := range []scenario.Network{
		{Scheme: scenario.SchemeFull, N: 512, M: 512, B: 64},
		{Scheme: scenario.SchemeSingle, N: 512, M: 512, B: 64},
		{Scheme: scenario.SchemePartial, N: 512, M: 512, B: 64, Groups: 4},
		{Scheme: scenario.SchemeKClass, N: 512, M: 512, B: 64, Classes: 4},
	} {
		built := buildScenario(t, scenario.Scenario{Network: nw, Model: scenario.Model{Kind: scenario.ModelUniform}, R: 0.5})
		ctx := context.Background()
		if _, err := Local().Analyze(ctx, built); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Local().Analyze(ctx, built); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: Analyze allocates %.1f times per call, want ≤ 1", nw.Scheme, allocs)
		}
	}
}
