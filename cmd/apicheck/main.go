// Command apicheck validates api/openapi.yaml against the running
// service: `make api-check`.
//
// Three gates, all against the real code, never a mock:
//
//  1. Route coverage — every route service.Routes() registers is
//     documented in the contract, and the contract documents nothing
//     the service does not serve.
//  2. Error envelope — the ErrorEnvelope schema's properties and
//     required list match the envelope the handlers actually emit:
//     every error body observed while replaying fixtures must use only
//     documented fields and carry every required one.
//  3. Fixture round-trips — the example requests under api/fixtures/
//     replay through a real Server (httptest, no network) and must
//     answer the documented status and error code. A fixture marked
//     "follow" drives the whole async job surface: submit, poll the
//     Location, page results, drain the stream, cancel.
//
// The parser reads the contract structurally (fixed two-space
// indentation, see the header comment in openapi.yaml) because the
// module deliberately has no YAML dependency.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"multibus/internal/service"
)

type specContract struct {
	// routes maps "METHOD /path/{param}" to true.
	routes map[string]bool
	// envelopeProps / envelopeRequired describe the ErrorEnvelope schema.
	envelopeProps    map[string]bool
	envelopeRequired []string
}

var methodKeys = map[string]string{
	"get:": "GET", "post:": "POST", "put:": "PUT",
	"delete:": "DELETE", "patch:": "PATCH",
}

// parseContract extracts the path/method table and the ErrorEnvelope
// schema from the contract's fixed-shape YAML.
func parseContract(data []byte) (*specContract, error) {
	c := &specContract{routes: make(map[string]bool), envelopeProps: make(map[string]bool)}
	lines := strings.Split(string(data), "\n")
	var (
		inPaths     bool
		currentPath string
		envSection  string // "", "required", "properties"
		inEnvelope  bool
	)
	for _, raw := range lines {
		if strings.TrimSpace(raw) == "" || strings.HasPrefix(strings.TrimSpace(raw), "#") {
			continue
		}
		indent := len(raw) - len(strings.TrimLeft(raw, " "))
		line := strings.TrimSpace(raw)
		if indent == 0 {
			inPaths = line == "paths:"
			currentPath = ""
			inEnvelope = false
		}
		if inPaths {
			switch {
			case indent == 2 && strings.HasPrefix(line, "/") && strings.HasSuffix(line, ":"):
				currentPath = strings.TrimSuffix(line, ":")
			case indent == 4 && currentPath != "":
				if m, ok := methodKeys[line]; ok {
					c.routes[m+" "+currentPath] = true
				}
			}
		}
		// ErrorEnvelope schema lives at 4-space indent under
		// components/schemas; its members at 6, their entries at 8.
		if indent == 4 && strings.HasSuffix(line, ":") {
			inEnvelope = line == "ErrorEnvelope:"
			envSection = ""
		}
		if inEnvelope {
			switch {
			case indent == 6 && line == "required:":
				envSection = "required"
			case indent == 6 && line == "properties:":
				envSection = "properties"
			case indent == 6 && strings.HasSuffix(line, ":"):
				envSection = ""
			case indent == 8 && envSection == "required" && strings.HasPrefix(line, "- "):
				c.envelopeRequired = append(c.envelopeRequired, strings.TrimPrefix(line, "- "))
			case indent == 8 && envSection == "properties" && strings.HasSuffix(line, ":"):
				c.envelopeProps[strings.TrimSuffix(line, ":")] = true
			}
		}
	}
	if len(c.routes) == 0 {
		return nil, fmt.Errorf("no paths parsed from contract")
	}
	if len(c.envelopeProps) == 0 {
		return nil, fmt.Errorf("no ErrorEnvelope properties parsed from contract")
	}
	return c, nil
}

// fixture is one replayable example request.
type fixture struct {
	Name      string          `json:"name"`
	Method    string          `json:"method"`
	Path      string          `json:"path"`
	Accept    string          `json:"accept,omitempty"`
	Body      json.RawMessage `json:"body,omitempty"`
	Status    int             `json:"status"`
	ErrorCode string          `json:"errorCode,omitempty"`
	// Follow drives the job lifecycle after a 202: poll the Location,
	// page results, drain the stream, cancel.
	Follow bool `json:"follow,omitempty"`
	// RawBody, when set, is sent verbatim instead of Body: for request
	// bodies that are not one valid JSON value.
	RawBody string `json:"rawBody,omitempty"`
}

type checker struct {
	contract *specContract
	failures int
}

func (ck *checker) failf(format string, args ...any) {
	ck.failures++
	fmt.Fprintf(os.Stderr, "apicheck: FAIL: "+format+"\n", args...)
}

// checkErrorBody validates one error response body against the
// contract's envelope schema.
func (ck *checker) checkErrorBody(where string, body []byte, wantCode string) {
	var outer map[string]json.RawMessage
	if err := json.Unmarshal(body, &outer); err != nil {
		ck.failf("%s: error body is not JSON: %v (%s)", where, err, body)
		return
	}
	raw, ok := outer["error"]
	if !ok || len(outer) != 1 {
		ck.failf("%s: error body is not {\"error\":{...}}: %s", where, body)
		return
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(raw, &env); err != nil {
		ck.failf("%s: envelope is not an object: %v", where, err)
		return
	}
	for key := range env {
		if !ck.contract.envelopeProps[key] {
			ck.failf("%s: envelope field %q is not documented in ErrorEnvelope", where, key)
		}
	}
	for _, req := range ck.contract.envelopeRequired {
		if _, ok := env[req]; !ok {
			ck.failf("%s: envelope is missing required field %q: %s", where, req, body)
		}
	}
	if wantCode != "" {
		var code string
		json.Unmarshal(env["code"], &code)
		if code != wantCode {
			ck.failf("%s: error code = %q, want %q", where, code, wantCode)
		}
	}
}

// matchesContractPath reports whether a concrete request path is
// covered by a documented path pattern for the method.
func (ck *checker) matchesContractPath(method, path string) bool {
	for route := range ck.contract.routes {
		m, pattern, _ := strings.Cut(route, " ")
		if m != method {
			continue
		}
		// QuoteMeta escapes the braces, so match the escaped form when
		// substituting path parameters with a segment wildcard.
		re := "^" + regexp.MustCompile(`\\\{[^/}]+\\\}`).ReplaceAllString(regexp.QuoteMeta(pattern), `[^/]+`) + "$"
		if ok, _ := regexp.MatchString(re, path); ok {
			return true
		}
	}
	return false
}

func (ck *checker) do(h http.Handler, method, path, accept string, body []byte) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// followJob exercises the job lifecycle routes with the id a submit
// fixture returned.
func (ck *checker) followJob(h http.Handler, name, location string) {
	status := ck.do(h, http.MethodGet, location, "", nil)
	if status.Code != http.StatusOK {
		ck.failf("%s: GET %s = %d, want 200: %s", name, location, status.Code, status.Body)
		return
	}
	list := ck.do(h, http.MethodGet, "/v1/jobs", "", nil)
	if list.Code != http.StatusOK {
		ck.failf("%s: GET /v1/jobs = %d, want 200", name, list.Code)
	}
	// Drain the stream: it follows the job to terminal, so when it
	// returns, results are final.
	stream := ck.do(h, http.MethodGet, location+"/stream", "", nil)
	if stream.Code != http.StatusOK {
		ck.failf("%s: GET %s/stream = %d, want 200", name, location, stream.Code)
		return
	}
	if ct := stream.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		ck.failf("%s: stream Content-Type = %q, want application/x-ndjson", name, ct)
	}
	lines := 0
	for _, line := range bytes.Split(bytes.TrimSpace(stream.Body.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		lines++
		if !json.Valid(line) {
			ck.failf("%s: stream line is not JSON: %s", name, line)
		}
	}
	results := ck.do(h, http.MethodGet, location+"/results?limit=1000", "", nil)
	if results.Code != http.StatusOK {
		ck.failf("%s: GET %s/results = %d, want 200: %s", name, location, results.Code, results.Body)
		return
	}
	var page struct {
		Records []json.RawMessage `json:"records"`
		More    bool              `json:"more"`
	}
	if err := json.Unmarshal(results.Body.Bytes(), &page); err != nil {
		ck.failf("%s: results page is not JSON: %v", name, err)
		return
	}
	if len(page.Records) != lines {
		ck.failf("%s: results page has %d records, stream had %d lines", name, len(page.Records), lines)
	}
	del := ck.do(h, http.MethodDelete, location, "", nil)
	if del.Code != http.StatusOK {
		ck.failf("%s: DELETE %s = %d, want 200", name, location, del.Code)
	}
}

func main() {
	specPath := "api/openapi.yaml"
	fixturesDir := "api/fixtures"
	if len(os.Args) > 1 {
		specPath = os.Args[1]
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: %v\n", err)
		os.Exit(1)
	}
	contract, err := parseContract(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: %s: %v\n", specPath, err)
		os.Exit(1)
	}
	ck := &checker{contract: contract}

	// Gate 1: the contract and the mux agree route for route.
	served := make(map[string]bool)
	for _, rt := range service.Routes() {
		key := rt.Method + " " + rt.Pattern
		served[key] = true
		if !contract.routes[key] {
			ck.failf("served route %q is not documented in %s", key, specPath)
		}
	}
	var documented []string
	for key := range contract.routes {
		documented = append(documented, key)
	}
	sort.Strings(documented)
	for _, key := range documented {
		if !served[key] {
			ck.failf("documented route %q is not served (stale contract?)", key)
		}
	}

	// Gates 2+3: replay the fixtures through a real server.
	srv, err := service.New(service.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: building server: %v\n", err)
		os.Exit(1)
	}
	h := srv.Handler()
	paths, err := filepath.Glob(filepath.Join(fixturesDir, "*.json"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "apicheck: no fixtures under %s\n", fixturesDir)
		os.Exit(1)
	}
	sort.Strings(paths)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			ck.failf("%s: %v", p, err)
			continue
		}
		var fx fixture
		if err := json.Unmarshal(raw, &fx); err != nil {
			ck.failf("%s: bad fixture: %v", p, err)
			continue
		}
		if fx.Name == "" {
			fx.Name = filepath.Base(p)
		}
		reqPath := fx.Path
		if i := strings.IndexByte(reqPath, '?'); i >= 0 {
			reqPath = reqPath[:i]
		}
		if !ck.matchesContractPath(fx.Method, reqPath) {
			ck.failf("%s: %s %s is not covered by any documented path", fx.Name, fx.Method, reqPath)
		}
		body := []byte(fx.Body)
		if fx.RawBody != "" {
			body = []byte(fx.RawBody)
		}
		rec := ck.do(h, fx.Method, fx.Path, fx.Accept, body)
		if rec.Code != fx.Status {
			ck.failf("%s: %s %s = %d, want %d: %s", fx.Name, fx.Method, fx.Path, rec.Code, fx.Status, rec.Body)
			continue
		}
		if rec.Code >= 400 {
			ck.checkErrorBody(fx.Name, rec.Body.Bytes(), fx.ErrorCode)
			if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
				ck.failf("%s: error response Cache-Control = %q, want no-store", fx.Name, cc)
			}
		}
		if fx.Follow && rec.Code == http.StatusAccepted {
			loc := rec.Header().Get("Location")
			if loc == "" {
				ck.failf("%s: 202 without Location", fx.Name)
				continue
			}
			ck.followJob(h, fx.Name, loc)
		}
	}

	if ck.failures > 0 {
		fmt.Fprintf(os.Stderr, "apicheck: %d failure(s)\n", ck.failures)
		os.Exit(1)
	}
	fmt.Printf("api-check: PASS (%d routes, %d fixtures, envelope fields %v)\n",
		len(contract.routes), len(paths), contract.envelopeRequired)
}
