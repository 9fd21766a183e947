package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"multibus/internal/compute"
	"multibus/internal/scenario"
	"multibus/internal/service"
	"multibus/internal/sweep"
)

// The reference answers are what the service's own layers produce
// in-process for the same body: compute.LocalBackend plus the JSON
// encoding the handler applies (json.Marshal and a trailing newline).

// decodeStrict decodes a request body the way the service does:
// unknown fields and trailing data are errors.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// encodeBody renders a response body exactly as the service writes it.
func encodeBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// buildAnalyze decodes an analyze body and builds its canonical scenario.
func buildAnalyze(body []byte) (*scenario.Built, error) {
	var req service.AnalyzeRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	built, err := scenario.Scenario{Network: req.Network, Model: req.Model, R: req.R}.Build()
	if err != nil {
		return nil, err
	}
	return built, built.CanAnalyze()
}

// sweepBody and sweepSkip mirror the /v1/sweep response shape.
type sweepBody struct {
	Points  []compute.Point `json:"points"`
	Skipped []sweepSkip     `json:"skipped"`
}

type sweepSkip struct {
	Scheme string `json:"scheme"`
	Model  string `json:"model"`
	N      int    `json:"n"`
	B      int    `json:"b"`
	Reason string `json:"reason"`
}

func newSweepBody(res *sweep.Result) sweepBody {
	body := sweepBody{Points: res.Points, Skipped: make([]sweepSkip, len(res.Skipped))}
	for i, sk := range res.Skipped {
		body.Skipped[i] = sweepSkip{Scheme: sk.Scheme, Model: sk.Model, N: sk.N, B: sk.B, Reason: sk.Reason}
	}
	return body
}

// sweepSpec decodes a sweep body into the spec the service would run.
func sweepSpec(body []byte) (sweep.Spec, error) {
	var req service.SweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return sweep.Spec{}, err
	}
	templates := make([]scenario.Network, 0, len(req.Schemes)+len(req.Networks))
	for _, name := range req.Schemes {
		nw, err := scenario.SweepScheme(name)
		if err != nil {
			return sweep.Spec{}, err
		}
		templates = append(templates, nw)
	}
	templates = append(templates, req.Networks...)
	return sweep.Spec{
		Ns: req.Ns, Bs: req.Bs, Rs: req.Rs,
		Schemes: templates, Models: req.Models, Hierarchical: req.Hierarchical,
		WithSim: req.WithSim, SimCycles: req.SimCycles, Seed: req.Seed,
	}, nil
}

// reference computes the expected response body for one request.
func reference(route string, body []byte) ([]byte, error) {
	switch route {
	case "/v1/analyze":
		built, err := buildAnalyze(body)
		if err != nil {
			return nil, err
		}
		res, err := compute.NewLocal(nil, nil).Analyze(context.Background(), built)
		if err != nil {
			return nil, err
		}
		return encodeBody(res)
	case "/v1/sweep":
		spec, err := sweepSpec(body)
		if err != nil {
			return nil, err
		}
		res, err := sweep.Run(spec)
		if err != nil {
			return nil, err
		}
		return encodeBody(newSweepBody(res))
	}
	return nil, fmt.Errorf("no reference for route %s", route)
}

// shapeCheck is the cheap check for responses not compared with a
// reference: the body must decode strictly into the route's shape.
func shapeCheck(route string, body []byte) error {
	switch route {
	case "/v1/sweep":
		var sb sweepBody
		if err := decodeStrict(body, &sb); err != nil {
			return err
		}
		if len(sb.Points) == 0 {
			return errors.New("sweep response has no points")
		}
		return nil
	}
	return fmt.Errorf("no shape check for route %s", route)
}

// references computes the reference body of every distinct request in
// bodies on workers goroutines.
func references(route string, bodies [][]byte, workers int) (map[string][]byte, error) {
	distinct := make(map[string]bool, len(bodies))
	var todo []string
	for _, b := range bodies {
		if !distinct[string(b)] {
			distinct[string(b)] = true
			todo = append(todo, string(b))
		}
	}
	out := make(map[string][]byte, len(todo))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan string)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range next {
				ref, err := reference(route, []byte(req))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s: %w", req, err)
				}
				out[req] = ref
				mu.Unlock()
			}
		}()
	}
	for _, req := range todo {
		next <- req
	}
	close(next)
	wg.Wait()
	return out, firstErr
}
