package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefLatencyBuckets are the bucket upper bounds of every histogram, in
// seconds (the Prometheus client defaults): 5ms up to 10s, plus the
// implicit +Inf overflow bucket. They span HTTP request latencies from
// a cache hit (~10µs, first bucket) to a request-deadline timeout.
var DefLatencyBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket distribution metric over
// DefLatencyBuckets. Observations are non-negative (latencies); each
// lands in the first bucket whose upper bound is ≥ the value, Prometheus
// `le` semantics. No per-observation allocation, safe for concurrent
// use.
type Histogram struct {
	counts  []atomic.Uint64 // one per DefLatencyBuckets bound
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(DefLatencyBuckets))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if i := sort.SearchFloat64s(DefLatencyBuckets, v); i < len(DefLatencyBuckets) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative); Counts[len(Bounds)] is the
// +Inf overflow bucket. The same count/sum/bucket shape appears in the
// Prometheus exposition and can be embedded in BENCH_*.json records.
type HistogramSnapshot struct {
	Count  uint64
	Sum    float64
	Bounds []float64
	Counts []uint64
}

// Snapshot copies the histogram's current state. Concurrent Observe
// calls may straddle the copy; each individual bucket is read
// atomically and Count ≥ the bucket total is not guaranteed during a
// race, which is fine for monitoring reads.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Bounds: append([]float64(nil), DefLatencyBuckets...),
		Counts: make([]uint64, len(DefLatencyBuckets)+1),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Counts[len(DefLatencyBuckets)] = h.inf.Load()
	return s
}
