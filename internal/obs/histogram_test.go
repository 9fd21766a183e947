package obs

import (
	"math"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the `le` edge semantics: an
// observation equal to a bound lands in that bound's bucket, one just
// above lands in the next, and anything beyond the last finite bound
// lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	cases := []struct {
		name       string
		observe    []float64
		wantCounts []uint64 // per-bucket, last is +Inf
	}{
		{"below first", []float64{0.001}, []uint64{1, 0, 0, 0}},
		{"exactly first bound", []float64{0.01}, []uint64{1, 0, 0, 0}},
		{"just above first bound", []float64{0.010001}, []uint64{0, 1, 0, 0}},
		{"zero", []float64{0}, []uint64{1, 0, 0, 0}},
		{"exact middle and last bounds", []float64{0.1, 1}, []uint64{0, 1, 1, 0}},
		{"overflow", []float64{1.5, 100}, []uint64{0, 0, 0, 2}},
		{"one per bucket", []float64{0.005, 0.05, 0.5, 5}, []uint64{1, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(bounds)
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
	h := r.Histogram("lat", "", nil)
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
	h := newHistogram([]float64{0.5})
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
	if s.Count != 8000 || s.Counts[0] != 8000 {
		t.Errorf("count = %d / bucket %d, want 8000", s.Count, s.Counts[0])
	}
	if math.Abs(s.Sum-8000*0.25) > 1e-6 {
		t.Errorf("sum = %v, want %v", s.Sum, 8000*0.25)
	}
}
