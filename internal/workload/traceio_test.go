package workload

import (
	"strings"
	"testing"

	"multibus/internal/rng"
)

func TestTraceRoundTrip(t *testing.T) {
	cycles := [][]Request{
		{{0, 1}, {1, 0}},
		{},
		{{2, 3}},
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, 4, 4, cycles); err != nil {
		t.Fatal(err)
	}
	n, m, got, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || m != 4 {
		t.Fatalf("dims %d×%d, want 4×4", n, m)
	}
	if len(got) != len(cycles) {
		t.Fatalf("cycles %d, want %d", len(got), len(cycles))
	}
	for c := range cycles {
		if len(got[c]) != len(cycles[c]) {
			t.Fatalf("cycle %d has %d requests, want %d", c, len(got[c]), len(cycles[c]))
		}
		for i := range cycles[c] {
			if got[c][i] != cycles[c][i] {
				t.Errorf("cycle %d request %d = %+v, want %+v", c, i, got[c][i], cycles[c][i])
			}
		}
	}
}

func TestWriteTraceValidation(t *testing.T) {
	var buf strings.Builder
	if err := WriteTrace(&buf, 0, 4, nil); err == nil {
		t.Error("N=0 should error")
	}
}

func TestReadTraceMalformed(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"no header", "cycle\n0 1\n"},
		{"bad header", "n=x m=4\ncycle\n"},
		{"header missing m", "n=4\ncycle\n"},
		{"request before cycle", "n=4 m=4\n0 1\n"},
		{"bad request arity", "n=4 m=4\ncycle\n0 1 2\n"},
		{"bad request int", "n=4 m=4\ncycle\n0 x\n"},
		{"no cycles", "n=4 m=4\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := ReadTrace(strings.NewReader(tc.input)); err == nil {
				t.Errorf("input %q parsed without error", tc.input)
			}
		})
	}
}

func TestReadTraceCommentsAndBlanks(t *testing.T) {
	input := `
# leading comment
n=2 m=3   # trailing comment on header? fields only

cycle
0 1  # processor 0 requests module 1

cycle
`
	// The header line has a comment that splits into extra fields — the
	// parser strips comments before splitting, so this must parse.
	n, m, cycles, err := ReadTrace(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || m != 3 || len(cycles) != 2 {
		t.Fatalf("n=%d m=%d cycles=%d", n, m, len(cycles))
	}
	if len(cycles[0]) != 1 || cycles[0][0] != (Request{0, 1}) {
		t.Errorf("cycle 0 = %+v", cycles[0])
	}
	if len(cycles[1]) != 0 {
		t.Errorf("cycle 1 = %+v, want empty", cycles[1])
	}
}

func TestNewTraceFromReader(t *testing.T) {
	input := "n=2 m=2\ncycle\n0 0\n1 1\ncycle\n0 1\n"
	gen, err := NewTraceFromReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	gen.BeginCycle()
	if got := gen.Next(0, nil); got != 0 {
		t.Errorf("cycle 0 p0 = %d, want 0", got)
	}
	if got := gen.Next(1, nil); got != 1 {
		t.Errorf("cycle 0 p1 = %d, want 1", got)
	}
	gen.BeginCycle()
	if got := gen.Next(0, nil); got != 1 {
		t.Errorf("cycle 1 p0 = %d, want 1", got)
	}
	if got := gen.Next(1, nil); got != NoRequest {
		t.Errorf("cycle 1 p1 = %d, want NoRequest", got)
	}
	// Out-of-range trace entries are caught by NewTrace.
	if _, err := NewTraceFromReader(strings.NewReader("n=2 m=2\ncycle\n5 0\n")); err == nil {
		t.Error("out-of-range processor should error")
	}
}

func TestRecordAndReplayEquivalence(t *testing.T) {
	// Record a stochastic workload, replay the trace: the replay must
	// produce identical request streams.
	gen, err := NewUniform(4, 4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := Record(gen, 50, rng.New(99, 0))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewTrace(4, 4, cycles)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 50; c++ {
		replay.BeginCycle()
		want := map[int]int{}
		for _, rq := range cycles[c] {
			want[rq.Processor] = rq.Module
		}
		for p := 0; p < 4; p++ {
			wantMod, ok := want[p]
			if !ok {
				wantMod = NoRequest
			}
			if got := replay.Next(p, nil); got != wantMod {
				t.Fatalf("cycle %d p%d: replay %d, recorded %d", c, p, got, wantMod)
			}
		}
	}
	// Validation.
	if _, err := Record(nil, 10, rng.New(1, 0)); err == nil {
		t.Error("nil generator should error")
	}
	if _, err := Record(gen, 0, rng.New(1, 0)); err == nil {
		t.Error("zero cycles should error")
	}
}

// TestTraceRoundTripLarge pins the large-input fix: a trace over
// M=50000 modules whose file carries a single line longer than
// bufio.Scanner's 64KB default token cap (which used to fail ReadTrace
// with "token too long" on hand-edited traces).
func TestTraceRoundTripLarge(t *testing.T) {
	const n, m = 50000, 50000
	// One cycle in which every processor requests its own module, plus
	// an empty cycle.
	reqs := make([]Request, n)
	for p := range reqs {
		reqs[p] = Request{Processor: p, Module: p}
	}
	cycles := [][]Request{reqs, nil}
	var buf strings.Builder
	if err := WriteTrace(&buf, n, m, cycles); err != nil {
		t.Fatal(err)
	}
	// A >64KB comment line must be skipped, not kill the parse.
	long := "# " + strings.Repeat("x", 100_000) + "\n"
	input := long + buf.String()
	gotN, gotM, gotCycles, err := ReadTrace(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadTrace at M=%d: %v", m, err)
	}
	if gotN != n || gotM != m {
		t.Fatalf("dims %d×%d, want %d×%d", gotN, gotM, n, m)
	}
	if len(gotCycles) != 2 || len(gotCycles[0]) != n || len(gotCycles[1]) != 0 {
		t.Fatalf("cycles %d/%d/%d, want 2 cycles of %d and 0 requests",
			len(gotCycles), len(gotCycles[0]), len(gotCycles[1]), n)
	}
	for p := 0; p < n; p += 9973 {
		if gotCycles[0][p] != (Request{Processor: p, Module: p}) {
			t.Fatalf("cycle 0 request %d = %+v", p, gotCycles[0][p])
		}
	}
}
