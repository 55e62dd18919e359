// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (internal/experiments; README "Quick start" for the harness):
//
//	BenchmarkFig2*   — Figure 2: TTL-expiry C′_S vs staleness bound
//	BenchmarkFig3*   — Figure 3: TTL-polling C′_F vs staleness bound
//	BenchmarkFig5*   — Figure 5: seven-policy comparison per workload
//	BenchmarkFig6*   — Figure 6: sketch latency/accuracy/storage
//	BenchmarkTable1  — Table 1: measured c_m/c_i/c_u breakdown
//
// plus throughput benchmarks for the simulator, the policy engine and the
// live TCP system. Benchmark metrics are reported via b.ReportMetric so
// `go test -bench=. -benchmem` prints the same quantities the paper
// plots. Run cmd/freshbench for full-scale, human-readable tables.
package freshcache_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"freshcache"
	"freshcache/internal/experiments"
	"freshcache/internal/model"
)

// benchOpts shrinks the experiments so a full -bench=. pass stays fast
// while preserving every curve's shape; cmd/freshbench uses full scale.
func benchOpts() experiments.Options {
	return experiments.Options{
		Duration: 60,
		Seed:     1,
		Bounds:   []float64{0.3, 1, 3, 10},
		T:        0.5,
	}
}

func BenchmarkFig2TTLExpiryStaleness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Sim*100, fmt.Sprintf("CS%%/%s/T=%g", p.Workload, p.T))
			}
		}
	}
}

func BenchmarkFig3TTLPollingFreshness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Sim, fmt.Sprintf("CFx/%s/T=%g", p.Workload, p.T))
			}
		}
	}
}

func BenchmarkFig5PolicyComparison(b *testing.B) {
	for _, wl := range freshcache.StandardWorkloadNames() {
		b.Run(wl, func(b *testing.B) {
			tr, err := freshcache.StandardWorkload(wl, 60, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				for _, pl := range []freshcache.Policy{
					freshcache.TTLExpiry, freshcache.TTLPolling, freshcache.Invalidate,
					freshcache.Update, freshcache.Adaptive, freshcache.AdaptiveCS,
					freshcache.Optimal,
				} {
					res, err := freshcache.Simulate(freshcache.SimConfig{
						T: 0.5, Capacity: tr.NumKeys * 6 / 10, Policy: pl,
						DisableFreshnessCheck: true,
					}, tr)
					if err != nil {
						b.Fatal(err)
					}
					if i == b.N-1 {
						b.ReportMetric(res.CFNorm, "CFx/"+pl.String())
						b.ReportMetric(res.CSNorm*100, "CS%/"+pl.String())
					}
				}
			}
		})
	}
}

func BenchmarkFig6Sketches(b *testing.B) {
	o := benchOpts()
	o.Duration = 30
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.LatencyUS, "us/"+r.Workload+"/"+r.Sketch)
				b.ReportMetric(r.Accuracy*100, "acc%/"+r.Workload+"/"+r.Sketch)
				b.ReportMetric(r.StorageSaving, "save/"+r.Workload+"/"+r.Sketch)
			}
		}
	}
}

func BenchmarkTable1CostBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(16, 256)
		if i == b.N-1 {
			for _, row := range res.Rows {
				b.ReportMetric(row.Total, row.Parameter+"-us")
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulated requests/second —
// how fast the evaluation engine chews through traces.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := freshcache.StandardWorkload("poisson", 120, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		_, err := freshcache.Simulate(freshcache.SimConfig{
			T: 1, Capacity: 80, Policy: freshcache.Adaptive,
			DisableFreshnessCheck: true,
		}, tr)
		if err != nil {
			b.Fatal(err)
		}
		total += tr.Len()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkEngineObserveFlush measures the live policy engine's hot path.
func BenchmarkEngineObserveFlush(b *testing.B) {
	eng := freshcache.NewEngine(freshcache.EngineConfig{})
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&511]
		eng.ObserveRead(k)
		eng.ObserveWrite(k)
		if i&8191 == 8191 {
			eng.Flush()
		}
	}
}

// BenchmarkLiveGet measures end-to-end GET latency through a real TCP
// cache node on loopback (hit path).
func BenchmarkLiveGet(b *testing.B) {
	st := freshcache.NewStoreServer(freshcache.StoreConfig{T: time.Second})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go st.Serve(sln) //nolint:errcheck
	defer st.Close()
	ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
		StoreAddr: sln.Addr().String(), T: time.Second, Name: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	defer ca.Close()

	c := freshcache.NewClient(cln.Addr().String(), freshcache.ClientOptions{MaxConns: 1})
	defer c.Close()
	if _, err := c.Put("bench-key", make([]byte, 128)); err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.Get("bench-key"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get("bench-key"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLivePut measures end-to-end write latency through the cache
// node to the store.
func BenchmarkLivePut(b *testing.B) {
	st := freshcache.NewStoreServer(freshcache.StoreConfig{T: time.Second})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go st.Serve(sln) //nolint:errcheck
	defer st.Close()
	c := freshcache.NewClient(sln.Addr().String(), freshcache.ClientOptions{MaxConns: 1})
	defer c.Close()
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put("bench-key", val); err != nil {
			b.Fatal(err)
		}
	}
}

// startBenchStore boots one store server on loopback preloaded with
// nkeys 128-byte values and returns its address.
func startBenchStore(b *testing.B, shard string, nkeys int) string {
	b.Helper()
	st := freshcache.NewStoreServer(freshcache.StoreConfig{T: time.Hour, ShardID: shard})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go st.Serve(ln) //nolint:errcheck
	b.Cleanup(func() { st.Close() })
	c := freshcache.NewClient(ln.Addr().String(), freshcache.ClientOptions{})
	defer c.Close()
	val := make([]byte, 128)
	for i := 0; i < nkeys; i++ {
		if _, err := c.Put(fmt.Sprintf("key-%04d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	return ln.Addr().String()
}

// hammer spreads b.N GETs over `workers` goroutines against get and
// reports ops/sec — the live transport comparison harness.
func hammer(b *testing.B, workers int, get func(key string) error) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < b.N; i += workers {
				if err := get(keys[i&63]); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkLiveThroughput has 64 concurrent workers share one client
// (one multiplexed connection) against one live store node.
func BenchmarkLiveThroughput(b *testing.B) {
	const workers = 64
	addr := startBenchStore(b, "bench", 64)
	c := freshcache.NewClient(addr, freshcache.ClientOptions{})
	defer c.Close()
	hammer(b, workers, func(key string) error {
		_, _, err := c.Get(key)
		return err
	})
}

// BenchmarkLiveThroughputSharded is the cluster variant: 64 workers
// share one sharded client over two store shards, so requests also fan
// across the ring on every call.
func BenchmarkLiveThroughputSharded(b *testing.B) {
	const workers = 64
	addrs := []string{
		startBenchStore(b, "shard-0", 0),
		startBenchStore(b, "shard-1", 0),
	}
	sc, err := freshcache.NewShardedClient(addrs, 0, freshcache.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	val := make([]byte, 128)
	for i := 0; i < 64; i++ {
		if _, err := sc.Put(fmt.Sprintf("key-%04d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	hammer(b, workers, func(key string) error {
		_, _, err := sc.Get(key)
		return err
	})
}

// BenchmarkAnalyticalModel measures the closed-form evaluation itself.
func BenchmarkAnalyticalModel(b *testing.B) {
	p := freshcache.Params{Lambda: 10, R: 0.9, T: 0.5, Cm: 2, Ci: 0.25, Cu: 1}
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, pl := range []freshcache.Policy{
			model.TTLExpiry, model.TTLPolling, model.Invalidate,
			model.Update, model.Adaptive, model.Optimal,
		} {
			c, err := p.PolicyCosts(pl)
			if err != nil {
				b.Fatal(err)
			}
			sink += c.CF
		}
	}
	_ = sink
}

// BenchmarkRingLookup measures consistent-hash routing throughput — the
// per-request cost the LB and every cache pay to pick a key's store
// shard.
func BenchmarkRingLookup(b *testing.B) {
	for _, nodes := range []int{2, 4, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			addrs := make([]string, nodes)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("10.0.0.%d:7001", i+1)
			}
			r, err := freshcache.NewRing(addrs, 0)
			if err != nil {
				b.Fatal(err)
			}
			keys := make([]string, 4096)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%06d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += r.Owner(keys[i&4095])
			}
			_ = sink
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

// BenchmarkRingJoinKeyMovement measures ring construction plus the
// consistent-hashing contract: the fraction of the keyspace that changes
// owner when a node joins (ideal: 1/(n+1); modulo hashing moves ~100%).
func BenchmarkRingJoinKeyMovement(b *testing.B) {
	const keys = 1 << 16
	for _, nodes := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			addrs := make([]string, nodes+1)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("10.0.0.%d:7001", i+1)
			}
			before, err := freshcache.NewRing(addrs[:nodes], 0)
			if err != nil {
				b.Fatal(err)
			}
			var movedFrac float64
			for i := 0; i < b.N; i++ {
				after, err := freshcache.NewRing(addrs, 0)
				if err != nil {
					b.Fatal(err)
				}
				moved := 0
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("key-%06d", k)
					if before.Owner(key) != after.Owner(key) {
						moved++
					}
				}
				movedFrac = float64(moved) / keys
			}
			b.ReportMetric(movedFrac, "moved-frac")
			b.ReportMetric(1/float64(nodes+1), "ideal-frac")
		})
	}
}

// BenchmarkWorkloadGeneration measures trace synthesis speed.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range freshcache.StandardWorkloadNames() {
		b.Run(name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				tr, err := freshcache.StandardWorkload(name, 20, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				n += tr.Len()
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "req/s")
		})
	}
}
