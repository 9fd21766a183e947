package service

import (
	"encoding/json"
	"fmt"
	"testing"

	"multibus/internal/analytic"
	"multibus/internal/cache"
	"multibus/internal/cliutil"
	"multibus/internal/scenario"
	"multibus/internal/sweep"
	"multibus/internal/topology"
)

// TestCrossLayerEquivalence is the scenario layer's contract test: one
// configuration expressed three ways — CLI flags, an HTTP JSON request
// with every default spelled out, and a sweep grid point — must produce
// identical Analysis numbers and byte-identical cache keys. Four
// connection schemes × three model kinds.
func TestCrossLayerEquivalence(t *testing.T) {
	type layer struct {
		name string
		// flags is the CLI spelling (defaults omitted).
		flags cliutil.ScenarioFlags
		// body is the HTTP spelling with defaults written out.
		body string
		// axis is the sweep scheme axis covering the same network.
		axis string
	}
	const r = 0.75
	schemes := []struct {
		name  string
		flags cliutil.ScenarioFlags
		net   string // network JSON, defaults spelled out
		axis  string
	}{
		{
			name:  "full",
			flags: cliutil.ScenarioFlags{Scheme: "full", N: 16, B: 8},
			net:   `{"scheme":"full","n":16,"m":16,"b":8}`,
			axis:  "full",
		},
		{
			name:  "single",
			flags: cliutil.ScenarioFlags{Scheme: "single", N: 16, B: 8},
			net:   `{"scheme":"single","n":16,"m":16,"b":8}`,
			axis:  "single",
		},
		{
			name:  "partial",
			flags: cliutil.ScenarioFlags{Scheme: "partial", N: 16, B: 8},
			net:   `{"scheme":"partial","n":16,"m":16,"b":8,"groups":2}`,
			axis:  "partial-g2",
		},
		{
			name:  "kclass",
			flags: cliutil.ScenarioFlags{Scheme: "kclass", N: 16, B: 8},
			net:   `{"scheme":"kclass","n":16,"m":16,"b":8,"classes":8}`,
			axis:  "kclasses",
		},
	}
	models := []struct {
		name  string
		flags func(f *cliutil.ScenarioFlags)
		model string
	}{
		{
			name:  "hier",
			flags: func(f *cliutil.ScenarioFlags) { f.Workload = "hier" },
			model: `{"kind":"hier","clusters":4,"aFavorite":0.6,"aCluster":0.3,"aRemote":0.1}`,
		},
		{
			name:  "uniform",
			flags: func(f *cliutil.ScenarioFlags) { f.Workload = "unif" },
			model: `{"kind":"uniform"}`,
		},
		{
			name:  "dasbhuyan",
			flags: func(f *cliutil.ScenarioFlags) { f.Workload = "dasbhuyan"; f.Q = 0.7 },
			model: `{"kind":"dasbhuyan","q":0.7}`,
		},
	}

	srv := newTestServer(t, Options{})
	handler := srv.Handler()
	memo, err := cache.New(64)
	if err != nil {
		t.Fatal(err)
	}

	for _, sch := range schemes {
		for _, mdl := range models {
			t.Run(sch.name+"/"+mdl.name, func(t *testing.T) {
				// Layer 1: CLI flags (defaults omitted).
				flags := sch.flags
				flags.R = r
				mdl.flags(&flags)
				sc, fromFile, err := flags.Scenario()
				if err != nil || fromFile {
					t.Fatalf("flags.Scenario() = fromFile=%v, err=%v", fromFile, err)
				}
				built, err := sc.Build()
				if err != nil {
					t.Fatal(err)
				}
				x, err := built.Model.X(r)
				if err != nil {
					t.Fatal(err)
				}
				cliBW, err := analytic.Bandwidth(built.Network, x)
				if err != nil {
					t.Fatal(err)
				}

				// Layer 2: HTTP JSON with defaults spelled out. The response
				// must match the CLI numbers exactly, and the server must have
				// stored the result under the key the CLI-built scenario
				// derives — byte-identical keys across spellings and layers.
				body := fmt.Sprintf(`{"network":%s,"model":%s,"r":%g}`, sch.net, mdl.model, r)
				rec := postJSON(t, handler, "/v1/analyze", body)
				if rec.Code != 200 {
					t.Fatalf("analyze status %d: %s", rec.Code, rec.Body)
				}
				var resp struct {
					X         float64 `json:"x"`
					Bandwidth float64 `json:"bandwidth"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Bandwidth != cliBW || resp.X != x {
					t.Errorf("HTTP (BW=%v, X=%v) != CLI (BW=%v, X=%v)",
						resp.Bandwidth, resp.X, cliBW, x)
				}
				if _, ok := srv.Cache().Get(built.AnalyzeKey()); !ok {
					t.Errorf("server cache has no entry under the CLI-derived key %q", built.AnalyzeKey())
				}

				// Layer 3: one-point sweep grid through a fresh memo cache.
				nw, err := scenario.SweepScheme(sch.axis)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sweep.Run(sweep.Spec{
					Ns:      []int{16},
					Bs:      []int{8},
					Rs:      []float64{r},
					Schemes: []scenario.Network{nw},
					Models:  []scenario.Model{sc.Model},
					Memo:    memo,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Points) != 1 || len(res.Skipped) != 0 {
					t.Fatalf("sweep: %d points, %d skipped", len(res.Points), len(res.Skipped))
				}
				if got := res.Points[0].Bandwidth; got != cliBW {
					t.Errorf("sweep BW %v != CLI BW %v", got, cliBW)
				}
				// The sweep key derived from the CLI-built scenario locates
				// the sweep's stored point. Sweep grid points always key with
				// an explicit sim block (cycles/seed are part of the axis).
				keyed := sc
				keyed.Sim = &scenario.Sim{}
				keyedBuilt, err := keyed.Build()
				if err != nil {
					t.Fatal(err)
				}
				v, ok := memo.Get(keyedBuilt.SweepPointKey(sch.axis, false))
				if !ok {
					t.Fatalf("sweep memo has no entry under the CLI-derived key")
				}
				if v.(sweep.Point) != res.Points[0] {
					t.Errorf("memo point %+v != sweep point %+v", v, res.Points[0])
				}
			})
		}
	}
}

// TestInternedNetworksStayPristineAfterServing pins the read-only
// contract network interning rests on: after analyze, simulate and a
// simulated sweep have run on a shape, the network scenario.Build hands
// out for it still equals a fresh construction, wiring and fingerprint
// alike.
func TestInternedNetworksStayPristineAfterServing(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	shapes := []struct {
		spec  scenario.Network
		fresh func() (*topology.Network, error)
	}{
		{scenario.Network{Scheme: "full", N: 16, B: 8}, func() (*topology.Network, error) { return topology.Full(16, 16, 8) }},
		{scenario.Network{Scheme: "single", N: 16, B: 8}, func() (*topology.Network, error) { return topology.SingleBus(16, 16, 8) }},
		{scenario.Network{Scheme: "partial", N: 16, B: 8, Groups: 2}, func() (*topology.Network, error) { return topology.PartialGroups(16, 16, 8, 2) }},
		{scenario.Network{Scheme: "kclass", N: 16, B: 8}, func() (*topology.Network, error) { return topology.EvenKClasses(16, 16, 8, 8) }},
		{scenario.Network{Scheme: "kclass", N: 16, B: 8, ClassSizes: []int{2, 6, 8}}, func() (*topology.Network, error) { return topology.KClasses(16, 8, []int{2, 6, 8}) }},
	}
	for _, sh := range shapes {
		spec, err := json.Marshal(sh.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []struct{ path, body string }{
			{"/v1/analyze", fmt.Sprintf(`{"network":%s,"model":{"kind":"uniform"},"r":0.7}`, spec)},
			{"/v1/simulate", fmt.Sprintf(`{"network":%s,"model":{"kind":"uniform"},"r":0.7,"sim":{"cycles":500,"seed":5}}`, spec)},
		} {
			if rec := postJSON(t, h, call.path, call.body); rec.Code != 200 {
				t.Fatalf("%s %s = %d: %s", call.path, call.body, rec.Code, rec.Body)
			}
		}
	}
	sweepBody := `{"ns":[16],"bs":[8],"rs":[0.5,1],"schemes":["full","single","partial","kclasses"],` +
		`"networks":[{"scheme":"kclass","classSizes":[2,6,8]}],"withSim":true,"simCycles":500}`
	if rec := postJSON(t, h, "/v1/sweep", sweepBody); rec.Code != 200 {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body)
	}
	for _, sh := range shapes {
		got, err := sh.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sh.fresh()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%+v: the interned network no longer matches a fresh construction after serving", sh.spec)
		}
	}
}
