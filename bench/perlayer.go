package main

import (
	"fmt"
	"os"

	"freshcache/internal/stats"
)

// layerLoops is roughly how many timed loops layerMetrics and
// serverMetrics run; the per-layer run divides its micro-timing share of
// the measured seconds by it.
const layerLoops = 45

// runPerLayer is the traced run (--trace 1): one set-up, a warm-up, an
// untraced open-loop pass whose counter deltas give the per-layer
// ratios, the same pass again with every request traced, a closed-loop
// burst for the CPU cost per operation, and the layer micro-timings.
// seconds is split 10/30/30/10/20 between them.
func runPerLayer(w *workloadSpec, seed uint64, seconds float64, spansOut string, info *os.File) (*result, error) {
	warmLen, passLen := share(seconds, 0.10), share(seconds, 0.30)
	burstLen, loopBudget := share(seconds, 0.10), share(seconds, 0.20)/layerLoops
	warmOps, err := genOps(w, seed^0x5eed, w.rate, warmLen.Seconds())
	if err != nil {
		return nil, err
	}
	ops, err := genOps(w, seed, w.rate, passLen.Seconds())
	if err != nil {
		return nil, err
	}
	keys := keyNames(w.keys)
	tp, tk, _, err := setUp(w, keys)
	if err != nil {
		return nil, err
	}
	defer tp.close()
	r, err := newRunner(w, tp, keys, tk)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := &result{Metrics: map[string]value{}}
	booted, err := tp.snapshot()
	if err != nil {
		return nil, err
	}

	warm := r.openLoop(warmOps, false)
	res.count(warm.attempted, warm.failed, warm.firstErr, "warm-up")

	before, err := tp.snapshot()
	if err != nil {
		return nil, err
	}
	plain := r.openLoop(ops, false)
	after, err := tp.snapshot()
	if err != nil {
		return nil, err
	}
	res.count(plain.attempted, plain.failed, plain.firstErr, "untraced pass")
	counterMetrics(res, after.delta(before), plain.elapsed.Seconds(), plain.keysRead, plain.staleKeys)

	traced := r.openLoop(ops, true)
	res.count(traced.attempted, traced.failed, traced.firstErr, "traced pass")
	if err := spanMetrics(res, traced.traces); err != nil {
		res.count(1, 1, err, "traced pass")
	}
	res.set("read_p50_us", stats.ExactQuantile(plain.reads, 0.50))
	res.set("read_p99_us", stats.ExactQuantile(plain.reads, 0.99))
	res.set("write_p50_us", stats.ExactQuantile(plain.writes, 0.50))
	res.set("write_p99_us", stats.ExactQuantile(plain.writes, 0.99))
	res.set("trace.overhead_frac", stats.ExactQuantile(traced.reads, 0.5)/stats.ExactQuantile(plain.reads, 0.5)-1)
	if spansOut != "" {
		if err := writeSpans(spansOut, traced.traces); err != nil {
			return nil, err
		}
	}

	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	burst := r.closedLoop(ops, burstLen)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	res.count(burst.attempted, burst.failed, burst.firstErr, "closed-loop burst")
	res.set("cpu_us_per_op", float64((cpu1-cpu0).Microseconds())/float64(burst.attempted))

	if err := layerMetrics(res, loopBudget, w.valSize); err != nil {
		return nil, err
	}
	if err := serverMetrics(res, tp, loopBudget); err != nil {
		return nil, err
	}
	if err := tp.healthSince(booted); err != nil {
		res.count(1, 1, err, "server health")
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(info, "%s seed %d traced: %d untraced + %d traced ops at %.0f/s, %d spans kept, %d keys read later than the T contract allows\n",
		w.name, seed, plain.attempted, traced.attempted, w.rate, len(traced.traces), plain.lateKeys+traced.lateKeys+burst.lateKeys)
	return res, nil
}
