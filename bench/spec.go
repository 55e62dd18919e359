package main

import "time"

// T is the staleness bound every server in the benchmark topology runs
// with: the store flusher's batch interval, hence the upper end of the
// write-to-visible lag the prober measures.
const T = 300 * time.Millisecond

// Generator shape, fixed so runs compare: one client to the LB over two
// multiplexed connections, a fixed pool of workers issuing requests.
const (
	genWorkers  = 64
	genMaxConns = 2
	batchKeys   = 16 // keys per MGET/MPUT on batch_scan
)

// Phase-A latency limits. The share of operations over them is printed
// as information only: on a shared 2-core box it is too small and too
// noisy to gate on.
const (
	readLimit  = 5 * time.Millisecond
	writeLimit = 10 * time.Millisecond
)

// workloadSpec is one traffic mix. Rates are frozen constants, never
// derived at run time, so the open-loop phase offers the same load on
// every commit: 7–15 % of the saturation rate measured on the reference
// 2-core box. Closer to saturation the median latency there sits between
// a fast mode (the vCPUs still awake from the last request) and a slow
// one (halted, woken through the host) and swings 30 % between runs; at
// these rates it stays in the slow mode.
type workloadSpec struct {
	name string
	why  string
	// rate is the open-loop base rate in operations per second; on a
	// batched workload one operation is one MGET/MPUT of batchKeys keys.
	rate      float64
	keys      int     // key universe
	zipf      float64 // popularity exponent
	readRatio float64 // ignored when mix is set
	mix       bool    // workload.Mix: read-heavy and write-heavy halves
	valSize   int
	capacity  int  // per-cache resident bound, 0 = unbounded
	batch     bool // group consecutive reads/writes into MGET/MPUT
}

var workloads = []workloadSpec{
	{
		name: "read_hot",
		why:  "98% reads, Zipf 1.1 over 10k resident keys: the paper's target case, loads codec+mux+LB+cache hit path, store idle",
		rate: 8000, keys: 10000, zipf: 1.1, readRatio: 0.98, valSize: 128,
	},
	{
		name: "write_fanout",
		why:  "read-heavy and write-heavy halves, 1 KiB values: loads store PUT, replication, policy engine, flusher push and cache apply",
		rate: 8000, keys: 10000, zipf: 1.1, mix: true, valSize: 1024,
	},
	{
		name: "miss_churn",
		why:  "Zipf 0.6 over 200k keys with 10k-entry caches: working set far above the cache, loads the miss/fill/evict path, bypasses hits",
		rate: 8000, keys: 200000, zipf: 0.6, readRatio: 0.95, valSize: 128, capacity: 10000,
	},
	{
		name: "batch_scan",
		why:  "MGET/MPUT of 16 keys, 90% reads, resident: the only load on the batch code path, brackets read_hot for batch-of-one work",
		rate: 1500, keys: 10000, zipf: 1.1, readRatio: 0.90, valSize: 128, batch: true,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec declares one metric of the benchmark. BENCHMARK.json is
// checked against these tables by the manifest test.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, each with the share of the parent's median by which it
// may worsen before a change counts as a regression. Every one is
// non-zero on every workload, and steady enough on the reference box to
// be held to its bound: over two sets of ten seeds no interquartile
// spread exceeded three quarters of it. That box is a shared 2-core VM
// whose host slows it by up to a third for seconds to minutes at a time,
// so of the timed figures only throughput qualifies (spread 12–18 % of
// the median, hence the widest bound allowed): latency percentiles and
// CPU time per operation spread 10–35 % and are reported, unbounded, with
// the per-layer metrics, as are the freshness outcomes that can
// legitimately read zero.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"sat_ops_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"cache_offload_frac", "ratio", "higher", 0.05},
	{"write_visible_p50_ms", "ms", "lower", 0.10},
	{"write_visible_p95_ms", "ms", "lower", 0.10},
}

// perLayer are the metrics of single layers, reported by the traced run
// (--trace 1). They carry no bound; they say where an end-to-end change
// came from. Three sources: self times from the traced pass's spans,
// counter deltas from each server's metrics registry over an untraced
// open-loop pass, and micro-timings of each layer's exported functions.
var perLayer = []metricSpec{
	// Traced pass: per-layer self time over the requests that reached
	// the layer.
	{name: "client.self_us_p50", unit: "us", better: "lower"},
	{name: "client.self_us_p99", unit: "us", better: "lower"},
	{name: "lb.self_us_p50", unit: "us", better: "lower"},
	{name: "lb.self_us_p99", unit: "us", better: "lower"},
	{name: "cache.self_us_p50", unit: "us", better: "lower"},
	{name: "cache.self_us_p99", unit: "us", better: "lower"},
	{name: "store.self_us_p50", unit: "us", better: "lower"},
	{name: "store.self_us_p99", unit: "us", better: "lower"},
	{name: "trace.hops_per_read", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},

	// Counter deltas over the untraced pass.
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.stale_miss_frac", unit: "ratio", better: "lower"},
	{name: "cache.cold_miss_frac", unit: "ratio", better: "lower"},
	{name: "cache.fills_deduped_frac", unit: "ratio", better: "higher"},
	{name: "cache.evictions_per_s", unit: "1/s", better: "lower"},
	{name: "cache.updates_applied_per_s", unit: "1/s", better: "lower"},
	{name: "cache.invalidates_applied_per_s", unit: "1/s", better: "lower"},
	{name: "cache.updates_ignored_frac", unit: "ratio", better: "lower"},
	{name: "cache.fill_rtt_us_mean", unit: "us", better: "lower"},
	{name: "store.push_updates_per_write", unit: "ratio", better: "lower"},
	{name: "store.push_invalidates_per_write", unit: "ratio", better: "lower"},
	{name: "store.ops_per_push_batch", unit: "count", better: "higher"},
	{name: "store.encodes_per_batch_sent", unit: "ratio", better: "lower"},
	{name: "store.rep_rtt_us_mean", unit: "us", better: "lower"},
	{name: "store.fills_per_s", unit: "1/s", better: "lower"},
	{name: "lb.read_rtt_us_mean", unit: "us", better: "lower"},
	{name: "lb.write_rtt_us_mean", unit: "us", better: "lower"},
	{name: "lb.batch_keys_per_s", unit: "1/s", better: "higher"},
	// Seen from outside like the end-to-end metrics, but unbounded:
	// client-observed latency over the untraced pass (from due time, exact
	// samples) and CPU per operation over a closed-loop burst, too noisy
	// on a shared box to gate, and the freshness outcomes that can read
	// zero.
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "read_p99_us", unit: "us", better: "lower"},
	{name: "write_p50_us", unit: "us", better: "lower"},
	{name: "write_p99_us", unit: "us", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "backend_fill_frac", unit: "ratio", better: "lower"},
	{name: "stale_read_frac", unit: "ratio", better: "lower"},

	// Micro-timings.
	{name: "proto.encode_get_ns", unit: "ns", better: "lower"},
	{name: "proto.encode_resp128_ns", unit: "ns", better: "lower"},
	{name: "proto.encode_resp1k_ns", unit: "ns", better: "lower"},
	{name: "proto.encode_mget16_ns", unit: "ns", better: "lower"},
	{name: "proto.decode_get_ns", unit: "ns", better: "lower"},
	{name: "proto.decode_resp1k_ns", unit: "ns", better: "lower"},
	{name: "proto.decode_mget16_ns", unit: "ns", better: "lower"},
	{name: "proto.roundtrip_allocs", unit: "count", better: "lower"},
	{name: "proto.wq_frames_per_flush", unit: "count", better: "higher"},
	{name: "proto.wq_ns_per_frame", unit: "ns", better: "lower"},
	{name: "kv.cache_get_hit_ns", unit: "ns", better: "lower"},
	{name: "kv.cache_put_ns", unit: "ns", better: "lower"},
	{name: "kv.cache_put_evict_ns", unit: "ns", better: "lower"},
	{name: "kv.cache_getbatch16_ns_per_key", unit: "ns", better: "lower"},
	{name: "kv.auth_put_ns", unit: "ns", better: "lower"},
	{name: "kv.auth_getview_ns", unit: "ns", better: "lower"},
	{name: "kv.auth_putbatch16_ns_per_key", unit: "ns", better: "lower"},
	{name: "kv.auth_put_par2_ns", unit: "ns", better: "lower"},
	{name: "sketch.hash_ns", unit: "ns", better: "lower"},
	{name: "sketch.observe_read_ns", unit: "ns", better: "lower"},
	{name: "sketch.observe_write_ns", unit: "ns", better: "lower"},
	{name: "sketch.ew_ns", unit: "ns", better: "lower"},
	{name: "core.observe_write_ns", unit: "ns", better: "lower"},
	{name: "core.flush_ns_per_dirty_key", unit: "ns", better: "lower"},
	{name: "ring.owner_ns", unit: "ns", better: "lower"},
	{name: "ring.replicas2_ns", unit: "ns", better: "lower"},
	{name: "client.store_rtt_us", unit: "us", better: "lower"},
	{name: "client.store_pipelined_ops_s", unit: "1/s", better: "higher"},
	{name: "client.allocs_per_get", unit: "count", better: "lower"},
	{name: "client.sharded_mget16_us", unit: "us", better: "lower"},
	{name: "store.flush_us_per_key", unit: "us", better: "lower"},
	{name: "cache.inproc_get_hit_ns", unit: "ns", better: "lower"},
	{name: "cache.direct_get_hit_us", unit: "us", better: "lower"},
	{name: "lb.added_us_p50", unit: "us", better: "lower"},
	{name: "costmodel.cu_over_ci_err", unit: "ratio", better: "lower"},
	{name: "costmodel.cm_over_ci_err", unit: "ratio", better: "lower"},
}
