package topology

import (
	"errors"
	"strings"
	"testing"
)

func TestWiringRoundTrip(t *testing.T) {
	builds := []func() (*Network, error){
		func() (*Network, error) { return Full(4, 4, 2) },
		func() (*Network, error) { return SingleBus(8, 8, 4) },
		func() (*Network, error) { return PartialGroups(8, 8, 4, 2) },
		func() (*Network, error) { return KClasses(3, 4, []int{2, 2, 2}) },
	}
	for _, build := range builds {
		orig, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := orig.WriteWiring(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := ReadWiring(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("%v: %v", orig, err)
		}
		if !parsed.Equal(orig) {
			t.Errorf("%v: round trip changed the wiring", orig)
		}
		if parsed.Scheme() != SchemeCustom {
			t.Errorf("parsed scheme = %v, want custom", parsed.Scheme())
		}
	}
}

func TestReadWiringMalformed(t *testing.T) {
	cases := []struct{ name, input string }{
		{"empty", ""},
		{"bad header", "n=x b=2 m=2\n1 1\n1 1\n"},
		{"zero dims", "n=0 b=2 m=2\n1 1\n1 1\n"},
		{"short row", "n=2 b=2 m=3\n1 1\n1 1 1\n"},
		{"bad flag", "n=2 b=1 m=2\n1 2\n"},
		{"too many rows", "n=2 b=1 m=2\n1 1\n1 1\n"},
		{"too few rows", "n=2 b=2 m=2\n1 1\n"},
		{"huge bus count", "n=1 b=9223372036854775807 m=1\n1\n"},
		{"rows before header", "1 1\nn=2 b=1 m=2\n"},
		{"disconnected module", "n=2 b=2 m=2\n1 0\n1 0\n"},
		// Strict header parsing: the old fmt.Sscanf accepted trailing
		// garbage and gave confusing errors on reordered keys.
		{"header trailing garbage", "n=1 b=2 m=3 junk\n1 1 1\n1 1 1\n"},
		{"header reordered keys", "b=2 n=1 m=3\n1 1 1\n1 1 1\n"},
		{"header missing key", "n=1 b=2\n1 1\n1 1\n"},
		{"header glued value", "n=1 b=2 m=3x\n1 1 1\n1 1 1\n"},
		{"header duplicate key", "n=1 n=2 m=3\n1 1 1\n1 1 1\n"},
		{"header empty value", "n=1 b= m=3\n1 1 1\n1 1 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadWiring(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("input %q parsed without error", tc.input)
			}
			if tc.name != "empty" && !errors.Is(err, ErrBadWiring) && !errors.Is(err, ErrBadDimensions) && !errors.Is(err, ErrDisconnected) {
				t.Errorf("input %q: error %v is not a classified wiring error", tc.input, err)
			}
		})
	}
}

func TestReadWiringHeaderErrorsNameTheField(t *testing.T) {
	// Reordered and junk-bearing headers must produce an ErrBadWiring
	// that names the offending field, not a generic Sscanf complaint.
	cases := []struct{ input, wantSub string }{
		{"n=1 b=2 m=3 junk\n", "4 fields"},
		{"b=2 n=1 m=3\n", `"b=2"`},
		{"n=1 b=2 m=3x\n", `"3x"`},
	}
	for _, tc := range cases {
		_, err := ReadWiring(strings.NewReader(tc.input))
		if err == nil {
			t.Fatalf("input %q parsed without error", tc.input)
		}
		if !errors.Is(err, ErrBadWiring) {
			t.Errorf("input %q: error %v does not wrap ErrBadWiring", tc.input, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("input %q: error %q does not mention %q", tc.input, err, tc.wantSub)
		}
	}
}

// TestWiringRoundTripLarge pins the large-input fix: a single wiring row
// for M=50000 modules is a ~100KB line, beyond bufio.Scanner's 64KB
// default token cap that used to fail ReadWiring with "token too long".
func TestWiringRoundTripLarge(t *testing.T) {
	const m, b = 50000, 3
	orig, err := SingleBus(4, m, b)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := orig.WriteWiring(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadWiring(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadWiring at M=%d: %v", m, err)
	}
	if !parsed.Equal(orig) {
		t.Fatal("large round trip changed the wiring")
	}
	if parsed.Fingerprint() != orig.Fingerprint() {
		t.Fatal("large round trip changed the fingerprint")
	}
}

func TestReadWiringComments(t *testing.T) {
	input := `
# custom crossing wiring
n=4 b=3 m=4   # header comment
1 1 0 0
0 1 1 0       # middle bus
0 0 1 1
`
	nw, err := ReadWiring(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 4 || nw.B() != 3 || nw.M() != 4 {
		t.Errorf("dims %d×%d×%d", nw.N(), nw.M(), nw.B())
	}
	ok, _ := nw.Connected(1, 2)
	if !ok {
		t.Error("bus 1 module 2 should be wired")
	}
}
