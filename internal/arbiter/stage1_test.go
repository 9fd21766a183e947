package arbiter

import (
	"strings"
	"testing"

	"multibus/internal/rng"
)

func TestNewStage1Validation(t *testing.T) {
	if _, err := NewStage1(0, PolicyRandom); err == nil {
		t.Error("M=0 should error")
	}
	if _, err := NewStage1(4, Stage1Policy(99)); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestStage1FixedPriority(t *testing.T) {
	s, _ := NewStage1(2, PolicyFixedPriority)
	for i := 0; i < 5; i++ {
		if w := s.Grant(0, []int{3, 5, 7}, nil); w != 3 {
			t.Errorf("fixed priority granted %d, want 3", w)
		}
	}
}

func TestStage1RoundRobinCycles(t *testing.T) {
	s, _ := NewStage1(1, PolicyRoundRobin)
	reqs := []int{1, 4, 6}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, s.Grant(0, reqs, nil))
	}
	want := []int{1, 4, 6, 1, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin sequence %v, want %v", got, want)
		}
	}
}

func TestStage1RoundRobinPerModuleState(t *testing.T) {
	s, _ := NewStage1(2, PolicyRoundRobin)
	w0 := s.Grant(0, []int{1, 2}, nil)
	w1 := s.Grant(1, []int{1, 2}, nil)
	if w0 != 1 || w1 != 1 {
		t.Errorf("fresh arbiters granted %d,%d; want 1,1 (independent state)", w0, w1)
	}
	w0 = s.Grant(0, []int{1, 2}, nil)
	if w0 != 2 {
		t.Errorf("module 0 second grant = %d, want 2", w0)
	}
	// Module 1's pointer is unaffected by module 0's grants beyond its own.
	w1 = s.Grant(1, []int{1, 2}, nil)
	if w1 != 2 {
		t.Errorf("module 1 second grant = %d, want 2", w1)
	}
}

func TestStage1RandomIsUniform(t *testing.T) {
	s, _ := NewStage1(1, PolicyRandom)
	rng := rng.New(7, 0)
	counts := map[int]int{}
	const trials = 30000
	reqs := []int{2, 5, 9}
	for i := 0; i < trials; i++ {
		counts[s.Grant(0, reqs, rng)]++
	}
	for _, p := range reqs {
		frac := float64(counts[p]) / trials
		if frac < 0.30 || frac > 0.37 {
			t.Errorf("processor %d won fraction %.3f, want ≈1/3", p, frac)
		}
	}
}

func TestStage1PolicyString(t *testing.T) {
	for _, tt := range []struct {
		p    Stage1Policy
		want string
	}{
		{PolicyRandom, "random"},
		{PolicyRoundRobin, "round-robin"},
		{PolicyFixedPriority, "fixed-priority"},
		{Stage1Policy(42), "42"},
	} {
		if got := tt.p.String(); !strings.Contains(got, tt.want) {
			t.Errorf("String() = %q, want substring %q", got, tt.want)
		}
	}
}
