package topology

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"multibus/internal/textio"
)

// Wiring file format (plain text, line-oriented):
//
//	# comments and blank lines are ignored
//	n=<processors> b=<buses> m=<modules>
//	1 1 0 0          <- bus 1: one 0/1 flag per module
//	0 1 1 0          <- bus 2
//	...
//
// The format captures arbitrary bus–module wirings, so custom topologies
// can be built in any editor and fed to the tools (mbfig -wiring,
// mbsim -wiring).

// ErrBadWiring is returned for malformed wiring files.
var ErrBadWiring = errors.New("topology: malformed wiring file")

// WriteWiring serializes the network's wiring, expanding each bus's
// sorted adjacency row into the dense 0/1 line of the file format.
func (nw *Network) WriteWiring(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# multibus wiring: %v\n", nw)
	fmt.Fprintf(bw, "n=%d b=%d m=%d\n", nw.n, nw.b, nw.m)
	for i := 0; i < nw.b; i++ {
		mods := nw.modsOnBus[i]
		for j := 0; j < nw.m; j++ {
			if j > 0 {
				bw.WriteByte(' ')
			}
			if len(mods) > 0 && mods[0] == j {
				bw.WriteByte('1')
				mods = mods[1:]
			} else {
				bw.WriteByte('0')
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// headerKeys is the exact field order of the wiring header line.
var headerKeys = [3]string{"n", "b", "m"}

// parseWiringHeader parses "n=<int> b=<int> m=<int>" strictly: exactly
// three fields, the keys in order, integer values with nothing attached
// to them. Anything else — extra tokens, reordered or missing keys,
// non-numeric values — is rejected with a message naming the offending
// field, not a generic scan error.
func parseWiringHeader(line int, text string) (n, b, m int, err error) {
	fields := strings.Fields(text)
	if len(fields) != 3 {
		return 0, 0, 0, fmt.Errorf("%w: line %d: header has %d fields, want exactly 3 (\"n=<int> b=<int> m=<int>\")",
			ErrBadWiring, line, len(fields))
	}
	var vals [3]int
	for i, f := range fields {
		key, val, found := strings.Cut(f, "=")
		if !found || key != headerKeys[i] {
			return 0, 0, 0, fmt.Errorf("%w: line %d: header field %d is %q, want \"%s=<int>\" (key order is n, b, m)",
				ErrBadWiring, line, i+1, f, headerKeys[i])
		}
		v, aerr := strconv.Atoi(val)
		if aerr != nil {
			return 0, 0, 0, fmt.Errorf("%w: line %d: header field %q: %q is not an integer",
				ErrBadWiring, line, f, val)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], nil
}

// ReadWiring parses a wiring file and builds the (custom-scheme)
// network it describes. Lines have no length limit (a single row for
// tens of thousands of modules is fine), and only the wired positions
// of each row are retained, so parsing allocates proportionally to the
// connection count plus one row of text.
func ReadWiring(r io.Reader) (*Network, error) {
	var n, b, m int
	sawHeader := false
	var busLists [][]int
	err := textio.EachDataLine(r, func(line int, text string) error {
		if !sawHeader {
			var err error
			n, b, m, err = parseWiringHeader(line, text)
			if err != nil {
				return err
			}
			if n < 1 || b < 1 || m < 1 {
				return fmt.Errorf("%w: line %d: n=%d b=%d m=%d (all must be ≥ 1)", ErrBadWiring, line, n, b, m)
			}
			// No capacity hint from b: the header is untrusted input, and
			// the row checks below bound the row count by the file's length.
			sawHeader = true
			return nil
		}
		if len(busLists) >= b {
			return fmt.Errorf("%w: line %d: more than %d bus rows", ErrBadWiring, line, b)
		}
		var row []int
		seen := 0
		for col, rest := 0, text; rest != ""; col++ {
			var f string
			f, rest = cutField(rest)
			v, err := strconv.Atoi(f)
			if err != nil || (v != 0 && v != 1) {
				return fmt.Errorf("%w: line %d: flag %q (want 0 or 1)", ErrBadWiring, line, f)
			}
			if v == 1 {
				row = append(row, col)
			}
			seen++
		}
		if seen != m {
			return fmt.Errorf("%w: line %d: %d flags, want M=%d", ErrBadWiring, line, seen, m)
		}
		busLists = append(busLists, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: missing header", ErrBadWiring)
	}
	if len(busLists) != b {
		return nil, fmt.Errorf("%w: %d bus rows, want B=%d", ErrBadWiring, len(busLists), b)
	}
	return customFromBusLists(n, m, busLists)
}

// cutField splits the first whitespace-separated field off a trimmed
// line, without allocating a full strings.Fields slice per row.
func cutField(s string) (field, rest string) {
	end := strings.IndexAny(s, " \t")
	if end < 0 {
		return s, ""
	}
	return s[:end], strings.TrimLeft(s[end:], " \t")
}
