package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of the Prometheus text exposition
// format version this package writes.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus
// text exposition format: families sorted by name, series sorted by
// label signature, so output is deterministic for a given registry
// state. Histogram series expand to cumulative _bucket lines (with the
// +Inf bucket), _sum, and _count, per the format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			writeSeries(&b, f, sig, f.series[sig])
		}
	}
	r.mu.Unlock()

	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series' sample lines.
func writeSeries(b *strings.Builder, f *family, sig string, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, braced(sig), s.counter.Value())
	case s.gaugeFn != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, braced(sig), formatFloat(s.gaugeFn()))
	case s.hist != nil:
		snap := s.hist.Snapshot()
		var cum uint64
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(sig, formatFloat(bound)), cum)
		}
		cum += snap.Counts[len(snap.Bounds)]
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(sig, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, braced(sig), formatFloat(snap.Sum))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, braced(sig), snap.Count)
	}
}

// braced wraps a non-empty label signature in braces.
func braced(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

// withLE appends the le label to a signature (histogram buckets).
func withLE(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return "{" + sig + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the text format: backslash and
// newline.
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(h)
}
