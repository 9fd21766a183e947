package chaos

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"seed=7", Config{Seed: 7}},
		{"latency=2s,latencyRate=1,seed=1", Config{Seed: 1, Latency: 2 * time.Second, LatencyRate: 1}},
		{"latencyRate=0.5,panicRate=0.25", Config{LatencyRate: 0.5, PanicRate: 0.25}},
		{" latency=10ms , panicRate=1 ", Config{Latency: 10 * time.Millisecond, PanicRate: 1}},
	}
	for _, tc := range cases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"frobnicate=1",      // unknown key
		"latencyRate",       // no value
		"latencyRate=1.5",   // out of range
		"panicRate=-0.1",    // out of range
		"latency=-5ms",      // negative duration
		"seed=not-a-number", // unparsable
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
	if _, err := Parse("errorRate=0.5"); err == nil || !strings.Contains(err.Error(), "unknown spec key") {
		t.Errorf("Parse(errorRate=0.5) = %v, want an unknown-key error", err)
	}
}

// injectPanicked reports whether one Inject call panicked with
// PanicValue.
func injectPanicked(t *testing.T, in *Injector) (panicked bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if r != PanicValue {
				t.Fatalf("recovered %v, want %q", r, PanicValue)
			}
			panicked = true
		}
	}()
	if err := in.Inject(context.Background()); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	return false
}

// Same seed, same call sequence, same faults: the whole point of a
// seeded injector is that a chaos test failure reproduces.
func TestDeterministicDecisionStream(t *testing.T) {
	run := func() []bool {
		in, err := New(Config{Seed: 42, PanicRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		outcomes := make([]bool, 64)
		for i := range outcomes {
			outcomes[i] = injectPanicked(t, in)
		}
		return outcomes
	}
	a, b := run(), run()
	panics := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs between identical seeds", i)
		}
		if a[i] {
			panics++
		}
	}
	// At rate 0.5 over 64 calls, both all-panic and none-panic would
	// mean the rate is not being applied.
	if panics == 0 || panics == len(a) {
		t.Errorf("panicRate=0.5 produced %d/%d panics", panics, len(a))
	}
}

// Enabling one fault type must not shift another type's decisions:
// every call draws both variates.
func TestDecisionStreamsIndependent(t *testing.T) {
	seq := func(cfg Config) []bool {
		cfg.Seed = 99
		cfg.PanicRate = 0.5
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 32)
		for i := range out {
			out[i] = injectPanicked(t, in)
		}
		return out
	}
	plain := seq(Config{})
	withLatency := seq(Config{Latency: time.Microsecond, LatencyRate: 0.5})
	for i := range plain {
		if plain[i] != withLatency[i] {
			t.Fatalf("panic decision %d shifted when latency injection was enabled", i)
		}
	}
}

func TestInjectedPanicCarriesPanicValue(t *testing.T) {
	in, err := New(Config{PanicRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != PanicValue {
			t.Errorf("recovered %v, want %q", r, PanicValue)
		}
	}()
	_ = in.Inject(context.Background())
	t.Fatal("Inject with panicRate=1 did not panic")
}

func TestLatencyRespectsContext(t *testing.T) {
	in, err := New(Config{Latency: time.Minute, LatencyRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	got := in.Inject(ctx)
	if !errors.Is(got, context.DeadlineExceeded) {
		t.Errorf("Inject under expired context returned %v, want DeadlineExceeded", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Inject slept %v despite canceled context", elapsed)
	}
	if s := in.Stats(); s.Aborted != 1 || s.Delays != 1 {
		t.Errorf("Stats = %+v, want one delay, one abort", s)
	}
}

func TestNilAndZeroInjectorsAreNoOps(t *testing.T) {
	var nilIn *Injector
	if err := nilIn.Inject(context.Background()); err != nil {
		t.Errorf("nil injector returned %v", err)
	}
	var zero Injector
	if err := zero.Inject(context.Background()); err != nil {
		t.Errorf("zero injector returned %v", err)
	}
	if s := zero.Stats(); s.Calls != 0 {
		t.Errorf("zero injector counted %d calls", s.Calls)
	}
}

func TestConfigureSwapsProfile(t *testing.T) {
	in, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	inject := func() {
		t.Helper()
		if err := in.Inject(context.Background()); err != nil {
			t.Fatalf("Inject: %v", err)
		}
	}
	inject()
	if got := in.Stats().Delays; got != 0 {
		t.Fatalf("quiet profile delayed %d calls", got)
	}
	if err := in.Configure(Config{Latency: time.Microsecond, LatencyRate: 1}); err != nil {
		t.Fatal(err)
	}
	inject()
	if got := in.Stats().Delays; got != 1 {
		t.Errorf("after Configure(latencyRate=1): %d delays, want 1", got)
	}
	if err := in.Configure(Config{LatencyRate: 2}); err == nil {
		t.Error("Configure accepted latencyRate=2")
	}
	// The rejected config must not have replaced the active profile.
	inject()
	if got := in.Stats().Delays; got != 2 {
		t.Errorf("profile changed by rejected Configure: %d delays, want 2", got)
	}
}
