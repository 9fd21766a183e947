package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multibus/internal/service"
)

// servedPhase runs the workload's requests [from, to) through an
// in-process handler and records them as a load phase.
func servedPhase(t *testing.T, wl *workload, from, to int) *phase {
	t.Helper()
	srv, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	p := &phase{arenas: [][]byte{nil}}
	for i := from; i < to; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, wl.route, bytes.NewReader(wl.body(i))))
		p.calls = append(p.calls, call{index: i, status: rec.Code, off: len(p.arenas[0]), n: rec.Body.Len()})
		p.arenaOf = append(p.arenaOf, 0)
		p.arenas[0] = append(p.arenas[0], rec.Body.Bytes()...)
	}
	return p
}

func TestVerifyAcceptsServedBodies(t *testing.T) {
	for _, name := range []string{"analyze-hot", "sweep-sim"} {
		wl, _ := newWorkload(name, 3)
		m := &measurement{window: servedPhase(t, wl, wl.warmup, wl.warmup+40)}
		v, err := verify(wl, m)
		if err != nil {
			t.Fatal(err)
		}
		if v.failed != 0 || v.attempted != 40 || (wl.sampled == nil && v.checked != 40) {
			t.Errorf("%s: verdict %+v, want 40 attempted and none failed", name, v)
		}
	}
}

func TestVerifyRejectsOneByteMutation(t *testing.T) {
	wl := analyzeHot(3)
	m := &measurement{window: servedPhase(t, wl, wl.warmup, wl.warmup+10)}
	c := m.window.calls[4]
	digit := bytes.IndexAny(m.window.body(4), "123456789")
	m.window.arenas[0][c.off+digit] ^= 1 // 1↔0, 2↔3, ...: still valid JSON
	v, err := verify(wl, m)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 1 || v.mismatched != 1 || v.ok[4] {
		t.Fatalf("verdict %+v, want exactly request 4 rejected as a mismatch", v)
	}
}

func TestVerifyCountsTransportAndStatusFailures(t *testing.T) {
	wl := analyzeHot(3)
	m := &measurement{window: servedPhase(t, wl, wl.warmup, wl.warmup+3)}
	m.window.calls[0].status = 0
	m.window.calls[1].status = 503
	v, err := verify(wl, m)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 2 || v.transport != 1 || v.non200 != 1 || v.mismatched != 0 {
		t.Fatalf("verdict %+v", v)
	}
}

func TestShapeCheckRejectsTruncatedSweep(t *testing.T) {
	wl := sweepSim(3)
	p := servedPhase(t, wl, 0, 1)
	body := p.body(0)
	if err := shapeCheck(wl.route, body); err != nil {
		t.Fatalf("served sweep body rejected: %v", err)
	}
	if err := shapeCheck(wl.route, body[:len(body)/2]); err == nil {
		t.Fatal("truncated sweep body accepted")
	}
}

func TestClientReadsLengthAndChunkedBodies(t *testing.T) {
	big := strings.Repeat("x", 10000) // past net/http's buffer: sent chunked
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write([]byte("small"))
		case "/big":
			w.Write([]byte(big))
		default:
			w.WriteHeader(http.StatusTeapot)
		}
	}))
	defer ts.Close()
	k, err := dial(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	for round := 0; round < 3; round++ { // one keep-alive connection throughout
		for _, tc := range []struct {
			route, body string
			status      int
		}{{"/small", "small", 200}, {"/big", big, 200}, {"/other", "", 418}} {
			status, body, err := k.do(tc.route, []byte(`{}`))
			if err != nil || status != tc.status || string(body) != tc.body {
				t.Fatalf("%s: status %d, %d bytes, err %v", tc.route, status, len(body), err)
			}
		}
	}
}
