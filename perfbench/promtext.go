package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// sample is one series value of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the Prometheus text format (version 0.0.4): comment
// and blank lines are skipped, every other line is
// `name{label="value",...} value [timestamp]`.
func parseProm(r io.Reader) ([]sample, error) {
	var out []sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	end := strings.IndexAny(line, "{ \t")
	if end <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name, line = line[:end], line[end:]
	if line[0] == '{' {
		line = line[1:]
		for {
			line = strings.TrimLeft(line, " \t,")
			if line == "" {
				return s, fmt.Errorf("unterminated label set")
			}
			if line[0] == '}' {
				line = line[1:]
				break
			}
			eq := strings.IndexByte(line, '=')
			if eq <= 0 || eq+1 >= len(line) || line[eq+1] != '"' {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			key := strings.TrimSpace(line[:eq])
			val, rest, err := unquoteLabel(line[eq+2:])
			if err != nil {
				return s, err
			}
			s.labels[key] = val
			line = rest
		}
	}
	fields := strings.Fields(line)
	if len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("want a value and an optional timestamp, got %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, err
	}
	s.value = v
	return s, nil
}

// unquoteLabel reads a label value up to its closing quote, resolving
// the format's three escapes (\\, \" and \n).
func unquoteLabel(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i == len(s) {
				break
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				return "", "", fmt.Errorf("bad escape \\%c in label value", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// promSum adds up the values of every series called name whose labels
// match (nil matches all).
func promSum(samples []sample, name string, match func(map[string]string) bool) float64 {
	total := 0.0
	for _, s := range samples {
		if s.name == name && (match == nil || match(s.labels)) {
			total += s.value
		}
	}
	return total
}

// labelIs matches series whose label key equals value.
func labelIs(key, value string) func(map[string]string) bool {
	return func(l map[string]string) bool { return l[key] == value }
}
