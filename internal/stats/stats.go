// Package stats provides small, allocation-light metric primitives used
// across the freshcache simulator and the live servers: monotonic counters
// and a log-bucketed latency histogram with percentile queries.
//
// All types are safe for concurrent use unless documented otherwise; the
// zero value of every type is ready to use.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter.
// The zero value is ready to use.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// histBuckets is the number of log-spaced buckets in Histogram. With base
// 1.07 this spans ~9 decades, plenty for ns..minutes latencies.
const (
	histBuckets = 320
	histBase    = 1.07
	histMin     = 1.0 // smallest distinguishable sample
)

// Histogram is a concurrency-safe, log-bucketed histogram for non-negative
// samples (typically nanoseconds or microseconds). Relative error per
// bucket is bounded by histBase-1 (~7%). The zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

func bucketOf(x float64) int {
	if x < histMin {
		return 0
	}
	b := int(math.Log(x/histMin)/math.Log(histBase)) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLow returns the lower bound of bucket b.
func bucketLow(b int) float64 {
	if b <= 0 {
		return 0
	}
	return histMin * math.Pow(histBase, float64(b-1))
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(x float64) {
	if x < 0 {
		x = 0
	}
	h.mu.Lock()
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
	h.buckets[bucketOf(x)]++
	h.mu.Unlock()
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of all samples, or 0 with none.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded sample, or 0 with none.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest recorded sample, or 0 with none.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) using the
// lower edge of the containing bucket, so estimates never exceed the true
// value by more than one bucket width. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count-1))
	var cum uint64
	for b, n := range h.buckets {
		cum += n
		if cum > rank {
			if b == 0 {
				return h.min
			}
			lo := bucketLow(b)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// Cumulative re-buckets the histogram onto the given ascending upper
// bounds (in sample units) for Prometheus-style exposition: counts[i] is
// the number of samples ≤ bounds[i], using each log bucket's lower edge
// as its representative value so the result never understates a
// sample's bucket by more than one log step (~7%). Also returns the
// total count and sum.
func (h *Histogram) Cumulative(bounds []float64) (counts []uint64, count uint64, sum float64) {
	counts = make([]uint64, len(bounds))
	h.mu.Lock()
	defer h.mu.Unlock()
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		rep := bucketLow(b)
		for i, ub := range bounds {
			if rep <= ub {
				counts[i] += n
			}
		}
	}
	return counts, h.count, h.sum
}

// Snapshot is a point-in-time summary of a Histogram.
type Snapshot struct {
	Count            uint64
	Mean, Min, Max   float64
	P50, P90, P99    float64
	P999             float64
	SumOfAllSamples  float64
	BucketsNonempty  int
	ApproxRelativeEr float64
}

// Snapshot captures a consistent summary of the histogram.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	cnt, sum, mn, mx := h.count, h.sum, h.min, h.max
	var nonempty int
	for _, n := range h.buckets {
		if n > 0 {
			nonempty++
		}
	}
	h.mu.Unlock()
	s := Snapshot{
		Count: cnt, Min: mn, Max: mx,
		SumOfAllSamples: sum, BucketsNonempty: nonempty,
		ApproxRelativeEr: histBase - 1,
	}
	if cnt > 0 {
		s.Mean = sum / float64(cnt)
	}
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	s.P999 = h.Quantile(0.999)
	return s
}

// String renders the snapshot compactly for logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.Count, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// ExactQuantile computes the exact q-quantile of samples (by sorting a
// copy). It is a test/analysis helper, not a hot-path primitive.
func ExactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	return cp[int(q*float64(len(cp)-1))]
}
