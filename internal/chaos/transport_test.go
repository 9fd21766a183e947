package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tripSequence drives n GETs through a transport against srv and
// records each outcome: "ok", "drop", or "err".
func tripSequence(t *testing.T, tr *Transport, srv *httptest.Server, n int) []string {
	t.Helper()
	client := &http.Client{Transport: tr}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, err := client.Get(srv.URL)
		switch {
		case err != nil:
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("trip %d: non-injected error %v", i, err)
			}
			out = append(out, "drop")
		case resp.StatusCode == http.StatusServiceUnavailable:
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), `"code":"internal_error"`) {
				t.Fatalf("trip %d: synthesized 503 body %q is not a v1 envelope", i, body)
			}
			out = append(out, "err")
		default:
			resp.Body.Close()
			out = append(out, "ok")
		}
	}
	return out
}

// TestTransportDeterministic pins the decision-stream rule: a given
// (seed, request sequence) yields the same faults every run, and the
// fault pattern is independent of which other fault types are enabled
// (each decision draws its own variate).
func TestTransportDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	mk := func(cfg TransportConfig) *Transport {
		tr, err := NewTransport(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cfg := TransportConfig{Seed: 7, DropRate: 0.4}
	a := tripSequence(t, mk(cfg), srv, 40)
	b := tripSequence(t, mk(cfg), srv, 40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at trip %d: %s vs %s", i, a[i], b[i])
		}
	}
	drops := 0
	for _, o := range a {
		if o == "drop" {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("dropRate 0.4 over %d trips delivered %d drops", len(a), drops)
	}
	// Enabling latency must not shift the drop pattern (separate draws).
	withLatency := cfg
	withLatency.LatencyRate = 1
	withLatency.Latency = time.Millisecond
	c := tripSequence(t, mk(withLatency), srv, 40)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("latency injection shifted the drop pattern at trip %d", i)
		}
	}
}

func TestTransportErrorEnvelopeAndStats(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
	}))
	defer srv.Close()
	tr, err := NewTransport(TransportConfig{Seed: 3, ErrorRate: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := tripSequence(t, tr, srv, 5)
	for i, o := range out {
		if o != "err" {
			t.Fatalf("trip %d = %s, want a synthesized 503 at errorRate 1", i, o)
		}
	}
	if hits != 0 {
		t.Errorf("server saw %d requests; synthesized 503s must never reach the peer", hits)
	}
	st := tr.Stats()
	if st.Calls != 5 || st.Errors != 5 || st.Drops != 0 {
		t.Errorf("stats = %+v, want 5 calls, 5 errors", st)
	}
}

// TestInjectedErrorMatchesSentinel: a dropped round trip surfaces
// through http.Client as an error matching ErrInjected, so tests can
// tell a synthetic peer failure from a real dial error, and the peer
// never sees the request.
func TestInjectedErrorMatchesSentinel(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
	}))
	defer srv.Close()
	tr, err := NewTransport(TransportConfig{DropRate: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: tr}
	if _, err := client.Get(srv.URL); !errors.Is(err, ErrInjected) {
		t.Errorf("Get with dropRate=1 returned %v, want ErrInjected", err)
	}
	if hits != 0 {
		t.Errorf("server saw %d requests; dropped requests must never reach the peer", hits)
	}
	if got := tr.Stats().Drops; got != 1 {
		t.Errorf("Stats.Drops = %d, want 1", got)
	}
}

func TestTransportMatchPassthrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	tr, err := NewTransport(TransportConfig{
		Seed:     1,
		DropRate: 1,
		Match:    func(r *http.Request) bool { return r.URL.Path == "/doomed" },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: tr}
	// Unmatched requests pass through untouched and draw nothing.
	for i := 0; i < 3; i++ {
		resp, err := client.Get(srv.URL + "/safe")
		if err != nil {
			t.Fatalf("unmatched request %d failed: %v", i, err)
		}
		resp.Body.Close()
	}
	if _, err := client.Get(srv.URL + "/doomed"); !errors.Is(err, ErrInjected) {
		t.Fatalf("matched request survived dropRate 1: %v", err)
	}
	if st := tr.Stats(); st.Calls != 1 || st.Drops != 1 {
		t.Errorf("stats = %+v, want exactly the matched request counted", st)
	}
	// An invalid reconfigure leaves the profile unchanged.
	if err := tr.Configure(TransportConfig{DropRate: 2}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := client.Get(srv.URL + "/doomed"); !errors.Is(err, ErrInjected) {
		t.Error("profile changed after a rejected Configure")
	}
}
