package main

import (
	"math"
	"testing"
)

// TestSmoke drives every workload through both runs at toy size — the
// same code the minute-long runs execute — and requires zero failed
// operations and a finite value for every declared metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, declared := range [][]metricSpec{endToEnd, perLayer} {
			res, err := runWorkload(options{workload: w.name, seed: 1, seconds: smokeSeconds, trace: trace, smoke: true})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v, %d of %d operations failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics reported, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
					t.Errorf("%s trace %d: %s reported as %+v (present %v)", w.name, trace, m.name, v, ok)
				}
			}
		}
	}
}
