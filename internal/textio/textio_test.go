package textio

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func collect(t *testing.T, input string) (lines []int, texts []string) {
	t.Helper()
	err := EachDataLine(strings.NewReader(input), func(line int, text string) error {
		lines = append(lines, line)
		texts = append(texts, text)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines, texts
}

func TestEachDataLineStripsCommentsAndBlanks(t *testing.T) {
	input := "# header comment\n\n  a b  # trailing\n\t\nc\n"
	lines, texts := collect(t, input)
	if want := []string{"a b", "c"}; len(texts) != 2 || texts[0] != want[0] || texts[1] != want[1] {
		t.Fatalf("texts = %q, want %q", texts, want)
	}
	// Physical line numbers count the skipped lines.
	if lines[0] != 3 || lines[1] != 5 {
		t.Fatalf("line numbers = %v, want [3 5]", lines)
	}
}

func TestEachDataLineNoTrailingNewline(t *testing.T) {
	_, texts := collect(t, "a\nb")
	if len(texts) != 2 || texts[1] != "b" {
		t.Fatalf("texts = %q, want final unterminated line processed", texts)
	}
}

func TestEachDataLineUnlimitedLength(t *testing.T) {
	// A single line far beyond bufio.Scanner's 64KB default token cap.
	var sb strings.Builder
	for i := 0; i < 200_000; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('1')
	}
	wantLen := sb.Len()
	_, texts := collect(t, sb.String())
	if len(texts) != 1 || len(texts[0]) != wantLen {
		t.Fatalf("long line mangled: got %d lines, first len %d, want 1 line of len %d",
			len(texts), len(texts[0]), wantLen)
	}
}

func TestEachDataLineStopsOnCallbackError(t *testing.T) {
	sentinel := errors.New("stop")
	calls := 0
	err := EachDataLine(strings.NewReader("a\nb\nc\n"), func(line int, text string) error {
		calls++
		if text == "b" {
			return fmt.Errorf("line %d: %w", line, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times, want 2 (stop at error)", calls)
	}
}

func TestDecodeJSONStrict(t *testing.T) {
	type doc struct {
		R float64 `json:"r"`
	}
	cases := []struct {
		name, in string
		want     error // nil: decodes; ErrTrailingData; errAny: some other error
	}{
		{"plain", `{"r":1}`, nil},
		{"trailing whitespace", "{\"r\":1} \n\t", nil},
		{"trailing brace", `{"r":1}}`, ErrTrailingData},
		{"trailing bracket", `{"r":1}]`, ErrTrailingData},
		{"trailing word", `{"r":1} x`, ErrTrailingData},
		{"second value", `{} {}`, ErrTrailingData},
		{"second scalar", `{"r":1} 2`, ErrTrailingData},
		{"unknown field", `{"r":1,"q":2}`, errAny},
		{"malformed", `{"r":`, errAny},
		{"empty", ``, errAny},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d doc
			err := DecodeJSON(strings.NewReader(tc.in), &d)
			switch tc.want {
			case nil:
				if err != nil {
					t.Fatalf("DecodeJSON(%q) = %v, want success", tc.in, err)
				}
				if d.R != 1 {
					t.Errorf("decoded r = %v, want 1", d.R)
				}
			case errAny:
				if err == nil || errors.Is(err, ErrTrailingData) {
					t.Errorf("DecodeJSON(%q) = %v, want a decode error", tc.in, err)
				}
			default:
				if !errors.Is(err, tc.want) {
					t.Errorf("DecodeJSON(%q) = %v, want %v", tc.in, err, tc.want)
				}
			}
		})
	}
}

var errAny = errors.New("any decode error")

// TestDecodeJSONKeepsReadErrors: a body cut off by a size limit after a
// complete value surfaces the limit's own error (the HTTP layer maps
// it to 413), not a trailing-data error.
func TestDecodeJSONKeepsReadErrors(t *testing.T) {
	body := `{"r":1}` + strings.Repeat(" ", 8192)
	r := http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 64)
	var d struct {
		R float64 `json:"r"`
	}
	err := DecodeJSON(r, &d)
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		t.Fatalf("DecodeJSON over the limit = %v, want *http.MaxBytesError", err)
	}
}
