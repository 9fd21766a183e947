package cliutil

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multibus/internal/scenario"
)

// TestScenarioFlagsAssembly: flags become a scenario verbatim, and the
// scheme-irrelevant ones vanish under canonicalization rather than
// being special-cased here.
func TestScenarioFlagsAssembly(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterScenarioFlags(fs, Defaults{})
	if err := fs.Parse([]string{"-scheme", "full", "-n", "8", "-b", "4", "-g", "2", "-k", "3", "-r", "0.5"}); err != nil {
		t.Fatal(err)
	}
	s, fromFile, err := f.Scenario()
	if err != nil || fromFile {
		t.Fatalf("Scenario() = fromFile=%v, err=%v", fromFile, err)
	}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Network.Groups != 0 || c.Network.Classes != 0 {
		t.Errorf("irrelevant flags survived canonicalization: %+v", c.Network)
	}
	if c.Network.N != 8 || c.Network.M != 8 || c.Network.B != 4 || c.R != 0.5 {
		t.Errorf("canonical network = %+v, r = %v", c.Network, c.R)
	}
}

func TestScenarioFlagsClassSizes(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterScenarioFlags(fs, Defaults{})
	if err := fs.Parse([]string{"-scheme", "kclass", "-n", "16", "-b", "4", "-classsizes", "2,6,8", "-workload", "dasbhuyan", "-q", "0.7"}); err != nil {
		t.Fatal(err)
	}
	s, _, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Network.ClassSizes(); len(got) != 3 || got[0] != 2 || got[1] != 6 || got[2] != 8 {
		t.Errorf("class sizes = %v", got)
	}
	if b.Scenario.Model.Kind != scenario.ModelDasBhuyan || b.Scenario.Model.Q != 0.7 {
		t.Errorf("model = %+v", b.Scenario.Model)
	}

	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	f2 := RegisterScenarioFlags(fs2, Defaults{})
	if err := fs2.Parse([]string{"-classsizes", "2,x"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f2.Scenario(); !errors.Is(err, ErrBadFlag) {
		t.Errorf("bad class size list: %v, want ErrBadFlag", err)
	}
}

// TestScenarioFlagsFile: -scenario loads the file and wins over flags.
func TestScenarioFlagsFile(t *testing.T) {
	s := scenario.Scenario{
		Network: scenario.Network{Scheme: "partial", N: 8, B: 4, Groups: 4},
		Model:   scenario.Model{Kind: "uniform"},
		R:       0.25,
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterScenarioFlags(fs, Defaults{})
	if err := fs.Parse([]string{"-scenario", path, "-n", "999"}); err != nil {
		t.Fatal(err)
	}
	got, fromFile, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !fromFile {
		t.Error("fromFile = false for -scenario")
	}
	if got.Network.Scheme != "partial" || got.Network.N != 8 || got.R != 0.25 {
		t.Errorf("loaded scenario = %+v", got)
	}
	// A file with an unknown field is rejected (strict decoding).
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"network":{},"model":{},"r":1,"nope":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fsb := flag.NewFlagSet("test", flag.ContinueOnError)
	fb := RegisterScenarioFlags(fsb, Defaults{})
	if err := fsb.Parse([]string{"-scenario", badPath}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fb.Scenario(); !errors.Is(err, scenario.ErrInvalid) {
		t.Errorf("bad file: %v, want scenario.ErrInvalid", err)
	}
}

// TestParseInts covers the list flag syntax.
func TestParseInts(t *testing.T) {
	got, err := ParseInts("2, 6,8")
	if err != nil || len(got) != 3 || got[0] != 2 || got[1] != 6 || got[2] != 8 {
		t.Errorf("ParseInts = %v, %v", got, err)
	}
	if got, err := ParseInts(""); err != nil || got != nil {
		t.Errorf("ParseInts(\"\") = %v, %v", got, err)
	}
	if _, err := ParseInts("a,b"); !errors.Is(err, ErrBadFlag) {
		t.Errorf("ParseInts(a,b) = %v, want ErrBadFlag", err)
	}
}

func TestRegisterLogFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterLogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if f.Level != "debug" || f.Format != "json" {
		t.Fatalf("parsed flags = %+v", f)
	}
}

func TestLogFlagsLogger(t *testing.T) {
	cases := []struct {
		name    string
		flags   LogFlags
		wantErr bool
		logged  string // substring a Warn record must contain; "" if the record is filtered
	}{
		{"text info", LogFlags{Level: "info", Format: "text"}, false, "level=WARN"},
		{"json warn", LogFlags{Level: "warn", Format: "json"}, false, `"level":"WARN"`},
		{"error filters warn", LogFlags{Level: "error", Format: "text"}, false, ""},
		{"defaults on empty", LogFlags{}, false, "level=WARN"},
		{"bad level", LogFlags{Level: "loud"}, true, ""},
		{"bad format", LogFlags{Format: "xml"}, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			logger, err := tc.flags.Logger(&buf)
			if tc.wantErr {
				if !errors.Is(err, ErrBadFlag) {
					t.Fatalf("err = %v, want ErrBadFlag", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			logger.Warn("probe")
			out := buf.String()
			if tc.logged == "" {
				if out != "" {
					t.Errorf("record not filtered: %q", out)
				}
				return
			}
			if !strings.Contains(out, tc.logged) || !strings.Contains(out, "probe") {
				t.Errorf("record %q missing %q", out, tc.logged)
			}
		})
	}
}

func TestProfileFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	pf := RegisterProfileFlags(fs)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := pf.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	x := 0.0
	for i := 0; i < 100000; i++ {
		x += float64(i) * 1e-9
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s missing: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestProfileFlagsNoop(t *testing.T) {
	stop, err := (&ProfileFlags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileFlagsBadPath(t *testing.T) {
	if _, err := (&ProfileFlags{CPU: filepath.Join(t.TempDir(), "no", "such", "dir", "x")}).Start(); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
	stop, err := (&ProfileFlags{Mem: filepath.Join(t.TempDir(), "no", "such", "dir", "x")}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable -memprofile path accepted")
	}
}
