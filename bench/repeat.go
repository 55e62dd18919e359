package main

import (
	"fmt"
	"sort"
)

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spread printed here is the one the acceptance check computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runRepeat runs the end-to-end run of every workload over n seeds and
// prints, per metric and workload, the median, the quartiles and the
// interquartile spread as a share of the median next to the metric's
// bound. A spread above the bound means a regression of that size could
// not be told from noise: it fails the report.
func runRepeat(o options, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs, got %d", n)
	}
	samples := map[string][]float64{} // "workload/metric"
	failed := 0
	o.trace = 0
	first := o.seed
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			o.workload, o.seed = w.name, first+uint64(i)
			res, err := child(o)
			if err != nil {
				return err
			}
			failed += res.Failed
			for name, v := range res.Metrics {
				samples[w.name+"/"+name] = append(samples[w.name+"/"+name], v.Value)
			}
		}
	}
	fmt.Printf("%-13s %-22s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound")
	wide := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(samples[w.name+"/"+m.name])
			spread := (q3 - q1) / q2
			mark := ""
			// setup_s is short and so relatively noisy; the acceptance
			// check exempts its spread, and so does this one.
			if spread > m.bound && m.name != "setup_s" {
				mark = "  WIDER THAN BOUND"
				wide++
			}
			fmt.Printf("%-13s %-22s %12.6g %12.6g %12.6g %8.4f %6.2f %.2f%s\n",
				w.name, m.name, q1, q2, q3, spread, m.bound, spread/m.bound, mark)
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations failed across the runs", failed)
	case wide > 0:
		return fmt.Errorf("%d metric × workload spreads exceed their bound", wide)
	}
	return nil
}
