package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"multibus/internal/rng"
	"multibus/internal/textio"
)

// Trace file format (plain text, line-oriented):
//
//	# anything after '#' is a comment
//	n=<processors> m=<modules>
//	cycle
//	<processor> <module>
//	<processor> <module>
//	cycle
//	...
//
// Every "cycle" line starts a new cycle; request lines list the
// processor and the module it requests that cycle. Empty cycles are
// legal (a bare "cycle" line). The format is deliberately trivial so
// traces can be produced by any tool or by hand.

// ErrBadTrace is returned for malformed trace files.
var ErrBadTrace = errors.New("workload: malformed trace")

// WriteTrace serializes a request trace.
func WriteTrace(w io.Writer, n, m int, cycles [][]Request) error {
	if n < 1 || m < 1 {
		return fmt.Errorf("%w: N=%d M=%d", ErrBadConfig, n, m)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# multibus request trace\nn=%d m=%d\n", n, m)
	for _, reqs := range cycles {
		fmt.Fprintln(bw, "cycle")
		for _, rq := range reqs {
			fmt.Fprintf(bw, "%d %d\n", rq.Processor, rq.Module)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace file and returns its dimensions and per-cycle
// requests. Validation (index ranges, duplicate processors per cycle) is
// deferred to NewTrace. Lines have no length limit (textio replaces the
// bufio.Scanner this used, whose 64KB token cap broke traces carrying
// very long comment or hand-edited lines).
func ReadTrace(r io.Reader) (n, m int, cycles [][]Request, err error) {
	sawHeader := false
	err = textio.EachDataLine(r, func(line int, text string) error {
		switch {
		case strings.HasPrefix(text, "n="):
			fields := strings.Fields(text)
			if len(fields) != 2 || !strings.HasPrefix(fields[1], "m=") {
				return fmt.Errorf("%w: line %d: want \"n=<int> m=<int>\"", ErrBadTrace, line)
			}
			var aerr error
			n, aerr = strconv.Atoi(fields[0][2:])
			if aerr != nil {
				return fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, aerr)
			}
			m, aerr = strconv.Atoi(fields[1][2:])
			if aerr != nil {
				return fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, aerr)
			}
			sawHeader = true
		case text == "cycle":
			if !sawHeader {
				return fmt.Errorf("%w: line %d: cycle before header", ErrBadTrace, line)
			}
			cycles = append(cycles, nil)
		default:
			if !sawHeader || len(cycles) == 0 {
				return fmt.Errorf("%w: line %d: request outside a cycle", ErrBadTrace, line)
			}
			fields := strings.Fields(text)
			if len(fields) != 2 {
				return fmt.Errorf("%w: line %d: want \"<processor> <module>\"", ErrBadTrace, line)
			}
			p, perr := strconv.Atoi(fields[0])
			if perr != nil {
				return fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, perr)
			}
			j, jerr := strconv.Atoi(fields[1])
			if jerr != nil {
				return fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, jerr)
			}
			cycles[len(cycles)-1] = append(cycles[len(cycles)-1], Request{Processor: p, Module: j})
		}
		return nil
	})
	if err != nil {
		return 0, 0, nil, err
	}
	if !sawHeader {
		return 0, 0, nil, fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	if len(cycles) == 0 {
		return 0, 0, nil, fmt.Errorf("%w: no cycles", ErrBadTrace)
	}
	return n, m, cycles, nil
}

// NewTraceFromReader parses a trace file and builds a replay generator
// from it.
func NewTraceFromReader(r io.Reader) (Generator, error) {
	n, m, cycles, err := ReadTrace(r)
	if err != nil {
		return nil, err
	}
	return NewTrace(n, m, cycles)
}

// Record runs a generator for the given number of cycles and captures
// the emitted requests as a trace, enabling replay of any stochastic
// workload. The generator is advanced as a side effect.
func Record(gen Generator, cycles int, rng *rng.Rand) ([][]Request, error) {
	if gen == nil || cycles < 1 {
		return nil, fmt.Errorf("%w: cycles=%d and generator must be non-nil", ErrBadConfig, cycles)
	}
	out := make([][]Request, cycles)
	for c := 0; c < cycles; c++ {
		gen.BeginCycle()
		for p := 0; p < gen.NProcessors(); p++ {
			if j := gen.Next(p, rng); j != NoRequest {
				out[c] = append(out[c], Request{Processor: p, Module: j})
			}
		}
	}
	return out, nil
}
