package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Errorf("Value = %d, want 16000", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should be zero-valued")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Errorf("mean = %v", h.Mean())
	}
	p50 := h.Quantile(0.5)
	if p50 < 35 || p50 > 60 {
		t.Errorf("p50 = %v, want ≈ 50 within bucket error", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 85 || p99 > 100 {
		t.Errorf("p99 = %v, want ≈ 99 within bucket error", p99)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 337))
	}
	prev := -1.0
	for _, q := range []float64{-1, 0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 {
		t.Errorf("negative sample not clamped: min=%v", h.Min())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestSnapshot(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Errorf("snapshot count = %d", s.Count)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 {
		t.Errorf("percentiles not ordered: %+v", s)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	if s.BucketsNonempty == 0 {
		t.Error("no buckets recorded")
	}
}

// Bucketed quantiles stay within one bucket's relative error of exact.
func TestPropHistogramQuantileError(t *testing.T) {
	f := func(raw []float64) bool {
		samples := raw[:0]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			samples = append(samples, 1+math.Abs(math.Mod(x, 1e6)))
		}
		if len(samples) < 10 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Observe(s)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			est := h.Quantile(q)
			exact := ExactQuantile(samples, q)
			// est uses bucket lower edge: est ≤ exact·(1+ε) and
			// est ≥ exact/(1+ε)² with slack for rank rounding.
			if est > exact*1.25+1 || est < exact/1.5-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExactQuantile(t *testing.T) {
	if ExactQuantile(nil, 0.5) != 0 {
		t.Error("empty input should give 0")
	}
	xs := []float64{5, 1, 3, 2, 4}
	if ExactQuantile(xs, 0) != 1 || ExactQuantile(xs, 1) != 5 {
		t.Error("extremes wrong")
	}
	if ExactQuantile(xs, 0.5) != 3 {
		t.Errorf("median = %v", ExactQuantile(xs, 0.5))
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("ExactQuantile mutated input")
	}
}
