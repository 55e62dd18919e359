package main

import (
	"fmt"
	"os"
	"time"

	"freshcache/internal/stats"
)

// maxLateness is how late the median request of an open loop may go out
// before the loop no longer counts as open. A generator or worker pool
// that cannot keep up falls further behind with every request, so its
// median lateness is a large part of the phase; a healthy one's is tens
// of microseconds, and a couple of milliseconds in the worst second the
// shared reference box has shown. The tail of the lateness and the share
// of requests that found no idle worker are reported but not judged: the
// host preempts the whole VM for tens of milliseconds a few times per
// phase, which puts the p99 of a healthy generator anywhere between 0.3
// and 30 ms.
const maxLateness = 10 * time.Millisecond

// setupRepeats is how many times a run boots and loads the topology:
// setup_s is the median, so one slow boot does not set it.
const setupRepeats = 5

// phases splits a run's measured seconds between warm-up, the open-loop
// phase A and the closed-loop phase B.
type phases struct {
	warm, a, b time.Duration
}

func splitSeconds(seconds float64) phases {
	return phases{warm: share(seconds, 0.10), a: share(seconds, 0.50), b: share(seconds, 0.40)}
}

// share is the given fraction of a run's measured seconds.
func share(seconds, fraction float64) time.Duration {
	return time.Duration(fraction * seconds * float64(time.Second))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	for _, tab := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				r.Metrics[name] = value{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

func (r *result) count(attempted, failed int, err error, what string) {
	r.Attempted += attempted
	r.Failed += failed
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", what, err)
	}
}

// setUp boots a topology and loads the workload's keyspace into it.
func setUp(w *workloadSpec, keys []string) (*topology, *tracker, time.Duration, error) {
	start := time.Now()
	tp, err := boot(w.capacity)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("boot: %w", err)
	}
	tk := newTracker(len(keys))
	if err := tp.preload(w, keys, tk); err != nil {
		tp.close()
		return nil, nil, 0, err
	}
	return tp, tk, time.Since(start), nil
}

// runEndToEnd is the untraced run: set-up (repeated), warm-up, phase A
// (open loop at the base rate, prober alongside), phase B (closed loop).
func runEndToEnd(w *workloadSpec, seed uint64, ph phases, info *os.File) (*result, error) {
	warmOps, err := genOps(w, seed^0x5eed, w.rate, ph.warm.Seconds())
	if err != nil {
		return nil, err
	}
	aOps, err := genOps(w, seed, w.rate, ph.a.Seconds())
	if err != nil {
		return nil, err
	}
	// Phase B cycles through a fixed-size list drawn from the same mix.
	bOps, err := genOps(w, seed+1, w.rate, 20)
	if err != nil {
		return nil, err
	}
	keys := keyNames(w.keys)

	var (
		tp     *topology
		tk     *tracker
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if tp != nil {
			tp.close()
		}
		var d time.Duration
		if tp, tk, d, err = setUp(w, keys); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer tp.close()

	r, err := newRunner(w, tp, keys, tk)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := &result{Metrics: map[string]value{}}
	res.set("setup_s", stats.ExactQuantile(setups, 0.5))
	booted, err := tp.snapshot()
	if err != nil {
		return nil, err
	}

	// The prober runs through warm-up too, unrecorded: the invalidates
	// the set-up writes caused are still in flight, and a probe that
	// finds its key invalidated sees the new version at once.
	probed := make(chan probeResult, 1)
	go func() { probed <- r.probe(ph.warm) }()
	warm := r.openLoop(warmOps, false)
	pr := <-probed
	res.count(warm.attempted, warm.failed, warm.firstErr, "warm-up")
	res.count(pr.attempted, pr.failed, pr.firstErr, "warm-up prober")

	// Phase A.
	before, err := tp.snapshot()
	if err != nil {
		return nil, err
	}
	go func() { probed <- r.probe(ph.a) }()
	a := r.openLoop(aOps, false)
	pr = <-probed
	after, err := tp.snapshot()
	if err != nil {
		return nil, err
	}
	fills := after.delta(before).storeFills()
	res.count(a.attempted, a.failed, a.firstErr, "phase A")
	res.count(pr.attempted, pr.failed, pr.firstErr, "prober")

	lateP50, lateP99 := usDuration(stats.ExactQuantile(a.late, 0.50)), usDuration(stats.ExactQuantile(a.late, 0.99))
	queuedFrac := float64(a.queued) / float64(a.attempted)
	if lateP50 > maxLateness {
		// The generator fell behind: the open loop was not open, and the
		// phase describes a backlog, not the system.
		res.count(1, 1, fmt.Errorf("generator lateness p50 %v, %.2f%% of requests queued", lateP50, 100*queuedFrac), "phase A")
	}
	res.set("cache_offload_frac", 1-fills/float64(a.keysRead))
	res.set("write_visible_p50_ms", stats.ExactQuantile(pr.lagsMs, 0.50))
	res.set("write_visible_p95_ms", stats.ExactQuantile(pr.lagsMs, 0.95))

	// Phase B.
	m0 := mallocs()
	b := r.closedLoop(bOps, ph.b)
	m1 := mallocs()
	res.count(b.attempted, b.failed, b.firstErr, "phase B")
	res.set("sat_ops_s", float64(b.attempted)/b.elapsed.Seconds())
	res.set("allocs_per_op", float64(m1-m0)/float64(b.attempted))

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	if err := tp.healthSince(booted); err != nil {
		res.count(1, 1, err, "server health")
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(info, "%s seed %d: phase A %d ops in %.2fs (reads n=%d p50 %.0fus, writes n=%d p50 %.0fus, probes n=%d max %.0fms), lateness p50 %v p99 %v, queued %.3f%%, over limit %.4f%%, stale reads %.4f%%; phase B %d ops in %.2fs; later than the T contract allows: %d probes, %d keys read in phase A, %d in phase B\n",
		w.name, seed, a.attempted, a.elapsed.Seconds(), len(a.reads), stats.ExactQuantile(a.reads, 0.5), len(a.writes), stats.ExactQuantile(a.writes, 0.5), len(pr.lagsMs), stats.ExactQuantile(pr.lagsMs, 1),
		lateP50, lateP99, 100*queuedFrac, 100*float64(a.overLimit)/float64(a.attempted),
		100*float64(a.staleKeys)/float64(max(a.keysRead, 1)), b.attempted, b.elapsed.Seconds(), pr.late, a.lateKeys, b.lateKeys)
	return res, nil
}
