package tables

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"multibus/internal/cost"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden")

// renderTablesGolden writes the float64 bits of every computed cell of
// the paper's Tables II–VI and the NM extension, one line per cell, and
// the integer cost columns of Table I at the reproduction's 16×16×8
// configuration (g = 2, K = 8). Bits, not rounded decimals, so any
// change to any evaluator shows up, however small.
func renderTablesGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# Float64 bits of every reproduced table cell. Regenerate with:")
	fmt.Fprintln(&buf, "#   go test ./internal/tables -run TestTablesGolden -update")
	fmt.Fprintln(&buf, "# A diff here means a reproduced number changed — check it against")
	fmt.Fprintln(&buf, "# the paper (EXPERIMENTS.md) before regenerating.")
	var tabs []*Table
	for _, id := range AllIDs() {
		tab, err := Generate(id)
		if err != nil {
			t.Fatalf("Generate(%s): %v", id, err)
		}
		tabs = append(tabs, tab)
	}
	nm, err := ExtensionNM()
	if err != nil {
		t.Fatalf("ExtensionNM: %v", err)
	}
	for _, tab := range append(tabs, nm) {
		fmt.Fprintf(&buf, "\n[%s]\n", tab.ID)
		for ri, row := range tab.Values {
			for ci, v := range row {
				fmt.Fprintf(&buf, "%s=%s\t%s\t%016x\t%.17g\n",
					tab.rowHeader(), tab.RowLabels[ri], tab.Columns[ci], math.Float64bits(v), v)
			}
		}
	}
	rows, err := cost.TableI(16, 16, 8, 2, 8)
	if err != nil {
		t.Fatalf("cost.TableI: %v", err)
	}
	fmt.Fprintf(&buf, "\n[I] N=16 M=16 B=8 g=2 K=8: connections, max bus load, fault degree\n")
	for _, r := range rows {
		fmt.Fprintf(&buf, "%s\t%d\t%d\t%d\n", r.Scheme, r.Connections, r.MaxBusLoad, r.FaultDegree)
	}
	return buf.Bytes()
}

// TestTablesGolden pins every reproduced number bit for bit, so a
// change anywhere under the closed forms fails here rather than in a
// by-hand comparison of mbtables output.
func TestTablesGolden(t *testing.T) {
	got := renderTablesGolden(t)
	path := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
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
		t.Errorf("reproduced tables drifted from %s; if intentional, regenerate with -update.\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
