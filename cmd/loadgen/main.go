// Command loadgen drives a live freshcache deployment with one of the
// paper's workloads, replayed in wall-clock time, and reports throughput,
// latency percentiles, hit ratio, and observed bounded-staleness
// compliance — the live counterpart of the simulator's metrics.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7201 -workload poisson -duration 10s \
//	        -rate 2000 -t 500ms -workers 8
//	loadgen -addr 127.0.0.1:7201 -stores 127.0.0.1:7001,127.0.0.1:7002 ...
//
// With -stores, writes bypass -addr and route directly to the store
// shard owning each key via the consistent-hash ring — the same routing
// the caches and the LB use — while reads keep exercising -addr.
//
// Workers share the client's multiplexed pipelined connections; -conns
// overrides how many there are.
//
// The staleness check: every write's value encodes its wall-clock issue
// time; a read that returns a value older than the latest write known to
// be more than T+slack old counts as a violation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"freshcache"
	"freshcache/internal/stats"
	"freshcache/internal/workload"
	"freshcache/internal/xrand"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7201", "target node (lb, cache, or store)")
	stores := flag.String("stores", "", "comma-separated store shard addresses; writes route by ring")
	wl := flag.String("workload", "poisson", "poisson|poisson-mix|meta-like|twitter-like")
	duration := flag.Duration("duration", 10*time.Second, "wall-clock run length")
	rate := flag.Float64("rate", 2000, "target requests/second")
	tBound := flag.Duration("t", 500*time.Millisecond, "staleness bound to validate against")
	conns := flag.Int("conns", 0, "client connections (0: client default)")
	workers := flag.Int("workers", 8, "concurrent load workers")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	var storeAddrs []string
	if *stores != "" {
		storeAddrs = strings.Split(*stores, ",")
	}
	opts := freshcache.ClientOptions{MaxConns: *conns}
	if err := run(*addr, storeAddrs, *wl, *duration, *rate, *tBound, *workers, opts, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

type keyState struct {
	mu      sync.Mutex
	lastVal string
	lastAt  time.Time
}

func run(addr string, storeAddrs []string, wl string, duration time.Duration, rate float64, tBound time.Duration, workers int, opts freshcache.ClientOptions, seed uint64) error {
	// Pre-generate the request sequence shape from the chosen workload
	// family (virtual inter-arrivals are replaced by the target rate).
	tr, err := workload.Standard(wl, 30, seed)
	if err != nil {
		return err
	}
	if tr.Len() == 0 {
		return errors.New("empty workload")
	}
	log.Printf("loadgen: %s against %s at %.0f req/s for %v (T=%v)", wl, addr, rate, duration, tBound)

	c := freshcache.NewClient(addr, opts)
	defer c.Close()

	// put issues a write: to -addr by default, or directly to the owning
	// store shard when -stores is given.
	put := c.Put
	if len(storeAddrs) > 0 {
		sc, err := freshcache.NewShardedClient(storeAddrs, 0, opts)
		if err != nil {
			return err
		}
		defer sc.Close()
		log.Printf("loadgen: writes route by ring across %d store shards", sc.Len())
		put = sc.Put
	}

	var (
		lat        stats.Histogram
		reads      stats.Counter
		writes     stats.Counter
		notFound   stats.Counter
		errsC      stats.Counter
		violations stats.Counter
	)
	states := make([]keyState, tr.NumKeys)
	slack := tBound / 2

	var wg sync.WaitGroup
	stopAt := time.Now().Add(duration)
	per := float64(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(seed, uint64(w)+100)
			idx := w
			for time.Now().Before(stopAt) {
				req := tr.Requests[idx%tr.Len()]
				idx += workers
				// Pace to the aggregate target rate.
				time.Sleep(time.Duration(rng.Exp(rate/per) * float64(time.Second)))
				key := fmt.Sprintf("key-%06d", req.Key)
				start := time.Now()
				if req.Op == workload.OpWrite {
					val := fmt.Sprintf("%d", start.UnixNano())
					if _, err := put(key, []byte(val)); err != nil {
						errsC.Inc()
						continue
					}
					st := &states[req.Key]
					st.mu.Lock()
					st.lastVal, st.lastAt = val, start
					st.mu.Unlock()
					writes.Inc()
				} else {
					v, _, err := c.Get(key)
					switch {
					case errors.Is(err, freshcache.ErrNotFound):
						notFound.Inc()
						continue
					case err != nil:
						errsC.Inc()
						continue
					}
					reads.Inc()
					st := &states[req.Key]
					st.mu.Lock()
					lastVal, lastAt := st.lastVal, st.lastAt
					st.mu.Unlock()
					if lastVal != "" && time.Since(lastAt) > tBound+slack && string(v) != lastVal {
						// The read returned data missing a write that is
						// older than the staleness bound.
						violations.Inc()
					}
				}
				lat.Observe(float64(time.Since(start).Microseconds()))
			}
		}(w)
	}
	wg.Wait()

	snap := lat.Snapshot()
	total := reads.Value() + writes.Value()
	fmt.Printf("requests: %d (%.0f/s)  reads=%d writes=%d not-found=%d errors=%d\n",
		total, float64(total)/duration.Seconds(), reads.Value(), writes.Value(),
		notFound.Value(), errsC.Value())
	fmt.Printf("latency (us): mean=%.0f p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
		snap.Mean, snap.P50, snap.P90, snap.P99, snap.Max)
	fmt.Printf("staleness violations (> T+%v): %d\n", slack, violations.Value())
	if st, err := c.Stats(); err == nil {
		if h, ok := st["hits"]; ok {
			g := st["gets"]
			if g > 0 {
				fmt.Printf("server hit rate: %.1f%% (hits=%d gets=%d)\n",
					100*float64(h)/float64(g), h, g)
			}
		}
	}
	if violations.Value() > 0 {
		return fmt.Errorf("%d staleness violations", violations.Value())
	}
	return nil
}
