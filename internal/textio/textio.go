// Package textio provides the repo's readers of outside text:
// line-oriented reading for the plain text file formats (topology
// wirings, request traces), and strict decoding of one JSON document
// (scenario files, HTTP request bodies). The line reader exists
// because bufio.Scanner's default 64KB token cap silently fails on a
// single wiring or trace line describing tens of thousands of modules
// ("token too long"); the reader here has no line-length limit — memory
// is bounded by the longest single line, not by a preset cap.
package textio

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"strings"
)

// ErrTrailingData reports bytes other than whitespace after a JSON
// document.
var ErrTrailingData = errors.New("trailing data after JSON value")

// DecodeJSON decodes exactly one JSON value from r into dst, strictly:
// unknown object fields are errors, and so is anything but whitespace
// after the value — a second value, a stray word, or a lone closing
// '}' or ']'. (json.Decoder.More reports false before a closing
// bracket, so a More check alone lets {"r":1}} through.) Read errors,
// an *http.MaxBytesError included, are returned as they are.
func DecodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, new(*json.SyntaxError)):
		return ErrTrailingData
	default:
		return err
	}
}

// EachDataLine reads r line by line without any length limit and calls
// fn once per data line, after stripping '#' comments and surrounding
// whitespace and skipping lines that are left empty. line is the
// 1-based physical line number (counting skipped lines), so parser
// errors point at the real file location. A final line without a
// trailing newline is processed like any other. Iteration stops at the
// first error fn returns, which is passed through verbatim.
func EachDataLine(r io.Reader, fn func(line int, text string) error) error {
	br := bufio.NewReader(r)
	line := 0
	for {
		text, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return err
		}
		if text == "" && err == io.EOF {
			return nil
		}
		line++
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text != "" {
			if ferr := fn(line, text); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}
