package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with lock-free Observe. Bucket
// bounds are set at construction (typically exponential — see ExpBuckets);
// observations do one bounded binary search plus two atomic adds and a
// CAS-loop float accumulation, and never allocate.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; implicit +Inf bucket after
	counts  []atomic.Int64 // len(bounds)+1
	total   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// NewHistogram returns a standalone histogram (outside any registry) —
// used by benchmarks and tests.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; index len(bounds) is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Since records the time elapsed since t0 in seconds.
func (h *Histogram) Since(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot reads the cumulative bucket counts, count and sum (for
// exposition; not atomic across buckets, which Prometheus tolerates).
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var c int64
	for i := range h.counts {
		c += h.counts[i].Load()
		cum[i] = c
	}
	return cum, h.total.Load(), h.Sum()
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start (start, start*factor, ...).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: invalid ExpBuckets")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: invalid LinearBuckets")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// DefBuckets covers latencies from 1µs to ~8.4s in powers of two — wide
// enough for a sub-microsecond kernel and a multi-second cold conversion
// in the same schema.
var DefBuckets = ExpBuckets(1e-6, 2, 24)

// SizeBuckets covers counts/sizes 1..4096 in powers of two (batch sizes,
// queue depths).
var SizeBuckets = ExpBuckets(1, 2, 13)

// ByteBuckets covers payload sizes 256B..~1GB in powers of four.
var ByteBuckets = ExpBuckets(256, 4, 12)

// StepBuckets covers small integer distances 0..32 (observed staleness).
var StepBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
