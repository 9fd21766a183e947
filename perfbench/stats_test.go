package main

import (
	"sort"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 999, 1000, 1001, 1100, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%n) + 0.5 // a permutation of distinct values
		}
		sort.Float64s(xs)
		tl := tailPercentile(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > tl.value {
				beyond++
			}
		}
		if beyond < minTail || tl.beyond != beyond {
			t.Errorf("n=%d: %d samples beyond p%.2f (reported %d), want ≥ %d", n, beyond, tl.pct, tl.beyond, minTail)
		}
		if n >= 1000 && tl.pct < 99 {
			t.Errorf("n=%d: reported p%.2f, want the true p99", n, tl.pct)
		}
	}
}

func TestTailPercentileWithTies(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 1985; i < 2000; i++ {
		xs[i] = 2 // 15 slow samples, all tied
	}
	tl := tailPercentile(xs, 0.99)
	if tl.value != 1 || tl.beyond != 15 {
		t.Fatalf("tail = %+v, want value 1 with the 15 tied slow samples beyond it", tl)
	}
}

func TestTailGroupsHoldEnoughSamples(t *testing.T) {
	var sl []slice
	for k := 0; k < 7; k++ {
		s := slice{dur: time.Second}
		for i := 0; i < 450; i++ {
			s.lat = append(s.lat, float64(i))
		}
		sl = append(sl, s)
	}
	groups := tailGroups(sl) // 7 × 450 = 3150 → groups of 1350, 1350, 450 → 2 groups
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	for _, g := range groups {
		if g.samples < minTailGroup || g.beyond < minTail {
			t.Errorf("group %+v holds fewer than %d samples or leaves fewer than %d beyond", g, minTailGroup, minTail)
		}
	}
}

func TestSlicesAssignByCompletion(t *testing.T) {
	t0 := time.Now()
	ticks := []cpuTick{
		{at: t0, cpu: 0},
		{at: t0.Add(time.Second), cpu: 500 * time.Millisecond},
		{at: t0.Add(2 * time.Second), cpu: 1200 * time.Millisecond},
		{at: t0.Add(2*time.Second + time.Millisecond), cpu: 1201 * time.Millisecond},
	}
	done := []time.Time{t0.Add(10 * time.Millisecond), t0.Add(1500 * time.Millisecond), t0.Add(1600 * time.Millisecond)}
	sl := slices(ticks, done, []float64{1, 2, 3})
	if len(sl) != 2 {
		t.Fatalf("got %d slices, want the 1 ms sliver dropped", len(sl))
	}
	if len(sl[0].lat) != 1 || len(sl[1].lat) != 2 || sl[1].cpu != 700*time.Millisecond {
		t.Fatalf("slices = %+v", sl)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}
