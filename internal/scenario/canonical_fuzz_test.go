package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioCanonical checks the scenario parser and canonicalizer on
// arbitrary bytes: Parse → Canonical → marshal → Parse → Canonical must
// not panic, Canonical must be idempotent, the canonical form must
// survive the JSON round trip unchanged, and Build must derive the same
// AnalyzeKey and SimulateKey from the original and the re-marshaled
// scenario — the cache-key stability the serving layer relies on when a
// peer or a job replays a canonical scenario. Canonical bounds the
// network at maxConnections, so every canonical scenario is built, and
// the wired network has exactly the connections canonicalization
// counted. Seeds are the committed example scenarios and the request
// bodies of the API fixtures.
func FuzzScenarioCanonical(f *testing.F) {
	for _, seed := range scenarioSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		c, err := s.Canonical()
		if err != nil {
			return
		}
		again, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical form %+v does not canonicalize: %v", c, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("Canonical not idempotent:\nonce:  %+v\ntwice: %+v", c, again)
		}
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal canonical %+v: %v", c, err)
		}
		s2, err := Parse(raw)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", raw, err)
		}
		c2, err := s2.Canonical()
		if err != nil {
			t.Fatalf("re-parsed %s does not canonicalize: %v", raw, err)
		}
		if !reflect.DeepEqual(c2, c) {
			t.Fatalf("canonical form changed across re-marshal:\nbefore: %+v\nafter:  %+v", c, c2)
		}

		b1, err1 := s.Build()
		b2, err2 := s2.Build()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Build disagrees across re-marshal of %s: %v vs %v", raw, err1, err2)
		}
		if err1 != nil {
			return
		}
		if got, want := b1.Network.NumConnections(), c.Network.connections(); got != want || got > maxConnections {
			t.Fatalf("%s wired %d connections, canonical count %d (limit %d)", raw, got, want, maxConnections)
		}
		if k1, k2 := b1.AnalyzeKey(), b2.AnalyzeKey(); k1 != k2 {
			t.Fatalf("AnalyzeKey changed across re-marshal of %s: %q vs %q", raw, k1, k2)
		}
		if k1, k2 := b1.SimulateKey(), b2.SimulateKey(); k1 != k2 {
			t.Fatalf("SimulateKey changed across re-marshal of %s: %q vs %q", raw, k1, k2)
		}
		// Two Builds of one canonical scenario (the second one from the
		// intern table when the shape fits) key identically and wire
		// networks Equal to a fresh construction.
		b3, err := c.Build()
		if err != nil {
			t.Fatalf("canonical %s does not build: %v", raw, err)
		}
		if k1, k3 := b1.AnalyzeKey(), b3.AnalyzeKey(); k1 != k3 {
			t.Fatalf("AnalyzeKey differs across two Builds of %s: %q vs %q", raw, k1, k3)
		}
		if k1, k3 := b1.SimulateKey(), b3.SimulateKey(); k1 != k3 {
			t.Fatalf("SimulateKey differs across two Builds of %s: %q vs %q", raw, k1, k3)
		}
		fresh := freshBuilt(t, c)
		if !b1.Network.Equal(b3.Network) || !b3.Network.Equal(fresh.Network) {
			t.Fatalf("Builds of %s wired unequal networks", raw)
		}
	})
}

// scenarioSeeds returns every committed example scenario file plus the
// request body of every API fixture that has one, with each item of a
// batch body as a seed of its own.
func scenarioSeeds(f *testing.F) [][]byte {
	f.Helper()
	examples, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	fixtures, err := filepath.Glob("../../api/fixtures/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(examples) == 0 || len(fixtures) == 0 {
		f.Fatalf("seed corpus missing: %d examples, %d fixtures", len(examples), len(fixtures))
	}
	var seeds [][]byte
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var fx struct {
			Body json.RawMessage `json:"body"`
		}
		if err := json.Unmarshal(data, &fx); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if len(fx.Body) == 0 {
			continue
		}
		seeds = append(seeds, fx.Body)
		var batch struct {
			Scenarios []json.RawMessage `json:"scenarios"`
		}
		if json.Unmarshal(fx.Body, &batch) == nil {
			for _, item := range batch.Scenarios {
				seeds = append(seeds, item)
			}
		}
	}
	return seeds
}
