package obs

import (
	"math"
	"sync"
	"testing"
)

// bucketCounts returns per-bucket counts over DefLatencyBuckets (the
// last is +Inf) with one observation per listed bucket index.
func bucketCounts(idx ...int) []uint64 {
	c := make([]uint64, len(DefLatencyBuckets)+1)
	for _, i := range idx {
		c[i]++
	}
	return c
}

// TestHistogramBucketBoundaries pins the `le` edge semantics: an
// observation equal to a bound lands in that bound's bucket, one just
// above lands in the next, and anything beyond the last finite bound
// lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	inf := len(DefLatencyBuckets)
	cases := []struct {
		name       string
		observe    []float64
		wantCounts []uint64 // per-bucket, last is +Inf
	}{
		{"below first", []float64{0.001}, bucketCounts(0)},
		{"exactly first bound", []float64{0.005}, bucketCounts(0)},
		{"just above first bound", []float64{0.005001}, bucketCounts(1)},
		{"zero", []float64{0}, bucketCounts(0)},
		{"exact middle and last bounds", []float64{0.1, 10}, bucketCounts(4, inf-1)},
		{"overflow", []float64{10.5, 100}, bucketCounts(inf, inf)},
		{"one per bucket", []float64{0.001, 0.007, 0.02, 0.03, 0.07, 0.2, 0.3, 0.7, 2, 3, 7, 20},
			bucketCounts(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram()
			var sum float64
			for _, v := range tc.observe {
				h.Observe(v)
				sum += v
			}
			s := h.Snapshot()
			if s.Count != uint64(len(tc.observe)) {
				t.Errorf("Count = %d, want %d", s.Count, len(tc.observe))
			}
			if math.Abs(s.Sum-sum) > 1e-12 {
				t.Errorf("Sum = %v, want %v", s.Sum, sum)
			}
			for i, want := range tc.wantCounts {
				if s.Counts[i] != want {
					t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], want, s.Counts)
				}
			}
		})
	}
}

func TestDefaultBucketsCoverServiceLatencies(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "")
	h.Observe(12e-6) // a cache hit
	h.Observe(30)    // a timed-out request
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Errorf("microsecond hit not in first bucket: %v", s.Counts)
	}
	if s.Counts[len(s.Bounds)] != 1 {
		t.Errorf("30s request not in +Inf bucket: %v", s.Counts)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Counts[5] != 8000 { // 0.25 is bound 5
		t.Errorf("count = %d / bucket %d, want 8000", s.Count, s.Counts[5])
	}
	if math.Abs(s.Sum-8000*0.25) > 1e-6 {
		t.Errorf("sum = %v, want %v", s.Sum, 8000*0.25)
	}
}
