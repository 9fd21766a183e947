// Package chaos is the fault-injection harness of the serving stack: a
// seeded, deterministic injector that perturbs compute paths with
// latency spikes and panics so the robustness layer — admission
// control, deadlines, panic recovery — can be exercised on demand
// instead of waiting for production to misbehave. Transport (below)
// does the same for the HTTP client between cluster peers.
//
// The injector sits on the compute seam: the service calls Inject at
// the top of every (singleflight-deduplicated) computation, so injected
// latency holds an admission slot exactly like a slow simulation would
// (and runs into the request deadline like one), and injected panics
// unwind through the same recovery middleware as a real bug.
//
// Determinism: every Inject call draws the same fixed number of
// variates from one seeded PCG stream (the repo-wide seed-derivation
// rule, sim.NewSeededRand), so a given (seed, call sequence) produces
// the same faults every run. Concurrent callers serialize on the draw,
// which interleaves sequences but never changes any individual stream
// of decisions for a single-threaded test.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multibus/internal/rng"
	"multibus/internal/sim"
)

// ErrInjected tags every error Transport injects; match it with
// errors.Is to distinguish synthetic failures from real ones in test
// assertions (the serving layer deliberately cannot tell them apart).
var ErrInjected = errors.New("chaos: injected failure")

// PanicValue is the value injected panics carry, so recovery middleware
// tests can assert they caught the synthetic panic and not a real bug.
const PanicValue = "chaos: injected panic"

// Config describes one fault profile. Rates are probabilities in
// [0, 1]; a zero Config injects nothing.
type Config struct {
	// Seed selects the deterministic decision stream (0 means seed 1,
	// via the repo-wide sim.EffectiveSeed rule).
	Seed int64
	// LatencyRate is the probability a call sleeps for Latency before
	// anything else happens.
	LatencyRate float64
	// Latency is the injected sleep duration (context-aware: a canceled
	// or expired context cuts the sleep short and returns its error).
	Latency time.Duration
	// PanicRate is the probability a call panics with PanicValue.
	PanicRate float64
}

// validate checks rates and durations.
func (c Config) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"latencyRate", c.LatencyRate}, {"panicRate", c.PanicRate}} {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("chaos: latency = %v (must be ≥ 0)", c.Latency)
	}
	return nil
}

// Parse decodes a -chaos flag spec: comma-separated key=value pairs.
// Keys: seed=<int>, latency=<duration>, latencyRate=<p>, panicRate=<p>.
// Example:
//
//	-chaos "latency=2s,latencyRate=1,seed=7"
//
// An empty spec is valid and injects nothing.
func Parse(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", part)
		}
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseInt(value, 10, 64)
		case "latency":
			c.Latency, err = time.ParseDuration(value)
		case "latencyRate":
			c.LatencyRate, err = strconv.ParseFloat(value, 64)
		case "panicRate":
			c.PanicRate, err = strconv.ParseFloat(value, 64)
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q (want seed|latency|latencyRate|panicRate)", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: bad %s: %v", key, err)
		}
	}
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Stats counts the faults an Injector has delivered.
type Stats struct {
	Calls   int64 // Inject invocations
	Delays  int64 // latency spikes slept (fully or cut short)
	Panics  int64 // panics raised
	Aborted int64 // sleeps cut short by context cancellation
}

// Injector delivers the faults a Config describes. Build one with New;
// it is safe for concurrent use. The zero value injects nothing.
type Injector struct {
	mu  sync.Mutex
	cfg Config
	rng *rng.Rand

	calls, delays, panics, aborted atomic.Int64
}

// New builds an injector for cfg, seeding its decision stream from
// cfg.Seed. It returns an error for out-of-range rates.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	in := &Injector{}
	in.configure(cfg)
	return in, nil
}

// Configure swaps the fault profile and reseeds the decision stream —
// tests flip an injector between faulty and quiet mid-run without
// rebuilding the server around it. Invalid configs are rejected with
// the profile unchanged.
func (in *Injector) Configure(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	in.mu.Lock()
	in.configure(cfg)
	in.mu.Unlock()
	return nil
}

// configure must run with mu held (New owns the injector exclusively).
func (in *Injector) configure(cfg Config) {
	in.cfg = cfg
	in.rng = sim.NewSeededRand(cfg.Seed)
}

// Stats returns a snapshot of the delivered-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Calls:   in.calls.Load(),
		Delays:  in.delays.Load(),
		Panics:  in.panics.Load(),
		Aborted: in.aborted.Load(),
	}
}

// Inject perturbs the calling computation according to the configured
// profile: first the latency spike (context-aware sleep), then the
// panic. Each call draws exactly two variates from the decision stream
// regardless of configuration, so enabling one fault type does not
// shift the decisions of another and a (seed, call index) pair always
// names the same fault. A nil receiver injects
// nothing, so callers can hold an optional *Injector without guarding.
func (in *Injector) Inject(ctx context.Context) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	if in.rng == nil { // zero-value Injector: draw nothing, inject nothing
		in.mu.Unlock()
		return nil
	}
	cfg := in.cfg
	uLatency := in.rng.Float64()
	uPanic := in.rng.Float64()
	in.mu.Unlock()
	in.calls.Add(1)

	if cfg.LatencyRate > 0 && uLatency < cfg.LatencyRate && cfg.Latency > 0 {
		in.delays.Add(1)
		timer := time.NewTimer(cfg.Latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			in.aborted.Add(1)
			return ctx.Err()
		}
	}
	if cfg.PanicRate > 0 && uPanic < cfg.PanicRate {
		in.panics.Add(1)
		panic(PanicValue)
	}
	return nil
}
