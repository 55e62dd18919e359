package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"freshcache/internal/stats"
)

// snapshot is every server's counters at one instant, summed per tier
// and keyed "<tier>.<stats key>". Histograms contribute their exact
// sum and count (as "<tier>.<family>_sum" / "_count", seconds), read
// from the same registry /metrics renders: the stats map carries only
// their sample counts.
type snapshot map[string]float64

func (tp *topology) snapshot() (snapshot, error) {
	s := snapshot{}
	add := func(tier string, reg *stats.Registry) error {
		for k, v := range reg.StatsMap() {
			s[tier+"."+k] += float64(v)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return err
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || !(strings.HasSuffix(name, "_seconds_sum") || strings.HasSuffix(name, "_seconds_count")) {
				continue
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("metrics line %q: %w", sc.Text(), err)
			}
			s[tier+"."+name] += f
		}
		return sc.Err()
	}
	for _, st := range tp.stores {
		if err := add("store", st.Metrics()); err != nil {
			return nil, err
		}
	}
	for _, ca := range tp.caches {
		if err := add("cache", ca.Metrics()); err != nil {
			return nil, err
		}
	}
	if err := add("lb", tp.lb.Metrics()); err != nil {
		return nil, err
	}
	return s, nil
}

// delta returns after − before for every key.
func (after snapshot) delta(before snapshot) snapshot {
	d := snapshot{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is a/b, 0 when b is 0 (nothing happened, so nothing was wasted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanUs is the mean of a latency histogram's delta, in microseconds.
func (d snapshot) meanUs(tier, family string) float64 {
	return 1e6 * ratio(d[tier+"."+family+"_sum"], d[tier+"."+family+"_count"])
}

// storeFills is the keys the caches fetched from the stores: single
// FILLs plus the keys of batched MFILLs (nothing else sends the stores
// multi-key reads in this topology).
func (d snapshot) storeFills() float64 { return d["store.fills"] + d["store.mget_ops"] }

// counterMetrics turns the counter deltas of one open-loop pass into the
// per-layer ratios: useful outcomes over attempts wherever a layer can
// waste work.
func counterMetrics(res *result, d snapshot, seconds float64, keysRead, staleKeys int) {
	gets := d["cache.gets"]
	misses := d["cache.stale_misses"] + d["cache.cold_misses"]
	res.set("cache.hit_ratio", ratio(d["cache.hits"], gets))
	res.set("cache.stale_miss_frac", ratio(d["cache.stale_misses"], gets))
	res.set("cache.cold_miss_frac", ratio(d["cache.cold_misses"], gets))
	res.set("cache.fills_deduped_frac", ratio(d["cache.fills_deduped"], misses))
	res.set("cache.evictions_per_s", d["cache.evictions"]/seconds)
	res.set("cache.updates_applied_per_s", d["cache.updates_applied"]/seconds)
	res.set("cache.invalidates_applied_per_s", d["cache.invalidates_applied"]/seconds)
	res.set("cache.updates_ignored_frac", ratio(d["cache.updates_ignored"], d["cache.updates_ignored"]+d["cache.updates_applied"]))
	res.set("cache.fill_rtt_us_mean", d.meanUs("cache", "freshcache_cache_fill_rtt_seconds"))

	writes := d["store.puts"] + d["store.mput_ops"]
	res.set("store.push_updates_per_write", ratio(d["store.updates_sent"], writes))
	res.set("store.push_invalidates_per_write", ratio(d["store.invalidates_sent"], writes))
	res.set("store.ops_per_push_batch", ratio(d["store.ops_sent"], d["store.batches_sent"]))
	res.set("store.encodes_per_batch_sent", ratio(d["store.batch_encodes"], d["store.batches_sent"]))
	res.set("store.rep_rtt_us_mean", d.meanUs("store", "freshcache_store_replication_rtt_seconds"))
	res.set("store.fills_per_s", d.storeFills()/seconds)

	res.set("lb.read_rtt_us_mean", d.meanUs("lb", "freshcache_lb_read_rtt_seconds"))
	res.set("lb.write_rtt_us_mean", d.meanUs("lb", "freshcache_lb_write_rtt_seconds"))
	res.set("lb.batch_keys_per_s", (d["lb.mget_ops"]+d["lb.mput_ops"])/seconds)

	res.set("backend_fill_frac", ratio(d.storeFills(), float64(keysRead)))
	res.set("stale_read_frac", ratio(float64(staleKeys), float64(keysRead)))
}

// healthSince reports the counters that must not move once the topology
// is up: a dropped subscriber, an epoch gap or resync, or an LB upstream
// error means the run measured a recovery, not the steady state.
func (tp *topology) healthSince(booted snapshot) error {
	now, err := tp.snapshot()
	if err != nil {
		return err
	}
	d := now.delta(booted)
	for _, k := range []string{"store.subscribers_dropped", "cache.epoch_gaps", "cache.resyncs", "lb.errors"} {
		if d[k] != 0 {
			return fmt.Errorf("%w: %s moved by %v during the run", errCheck, k, d[k])
		}
	}
	return nil
}
