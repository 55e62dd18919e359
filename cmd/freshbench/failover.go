package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"freshcache"
)

// failoverBucket is one 100ms slice of the load trajectory around the
// store kill.
type failoverBucket struct {
	TSec       float64 `json:"t_s"`
	Reads      int     `json:"reads"`
	Writes     int     `json:"writes"`
	Errors     int     `json:"errors"`
	Violations int     `json:"violations"` // reads staler than the crash bound
}

// failoverReport is the machine-readable record of a kill-a-store run
// (BENCH_failover.json), alongside BENCH_reshard.json.
type failoverReport struct {
	Benchmark    string           `json:"benchmark"`
	Generated    string           `json:"generated"`
	TBoundMS     float64          `json:"t_bound_ms"`
	CrashBoundMS float64          `json:"crash_bound_ms"`
	LeaseMS      float64          `json:"lease_ms"`
	Replicas     int              `json:"replicas"`
	Workers      int              `json:"workers"`
	Keys         int              `json:"keys"`
	DurationS    float64          `json:"duration_s"`
	KillAtS      float64          `json:"kill_at_s"`
	PromotedAtS  float64          `json:"promoted_at_s"`
	VictimShare  float64          `json:"victim_share"` // fraction of keys the victim owned
	LostWrites   int              `json:"lost_writes"`
	TotalReads   int              `json:"total_reads"`
	TotalWrites  int              `json:"total_writes"`
	TotalErrors  int              `json:"total_errors"`
	Violations   int              `json:"violations"`
	Buckets      []failoverBucket `json:"buckets"`
	// NodeMetrics is each node's end-of-run stats snapshot (the same
	// registries /metrics renders), keyed by role — the failover
	// counters and replication lag land in the recorded artifact.
	NodeMetrics map[string]map[string]uint64 `json:"node_metrics,omitempty"`
}

const failoverBucketWidth = 100 * time.Millisecond

// failoverBench boots a replicated (R=2) 3-store/2-cache/1-LB cluster
// on loopback with the lease-based failure detector armed, drives
// mixed load, kills one store halfway through, and records the
// throughput / staleness trajectory through the automatic failover.
func failoverBench(workers int, benchtime time.Duration, tBound float64, jsonPath string) error {
	T := time.Duration(tBound * float64(time.Second))
	if T <= 0 {
		T = 500 * time.Millisecond
	}
	lease := 400 * time.Millisecond
	// The crash bound: the dead store can take one un-flushed batch
	// interval of invalidates with it, and the disconnect deadline
	// caps the resident tail at kill-time + T.
	crashBound := 2 * T
	if benchtime < 6*T {
		benchtime = 6 * T
	}
	quiet := log.New(io.Discard, "", 0)

	listen := func() (net.Listener, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		return ln, ln.Addr().String(), nil
	}

	// Store listeners first (the coordinator's ring needs the
	// addresses), then the coordinator, then the heartbeating stores.
	const nStores = 3
	storeLns := make([]net.Listener, nStores)
	storeAddrs := make([]string, nStores)
	for i := range storeLns {
		ln, addr, err := listen()
		if err != nil {
			return err
		}
		storeLns[i], storeAddrs[i] = ln, addr
	}
	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: storeAddrs, Replicas: 2, LeaseInterval: lease, Logger: quiet,
	})
	if err != nil {
		return err
	}
	coLn, coAddr, err := listen()
	if err != nil {
		return err
	}
	go co.Serve(coLn) //nolint:errcheck
	defer co.Close()

	stores := make([]*freshcache.StoreServer, nStores)
	for i := range stores {
		stores[i] = freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
			ClusterAddr: coAddr, AdvertiseAddr: storeAddrs[i],
			HeartbeatInterval: lease / 8,
		})
		go stores[i].Serve(storeLns[i]) //nolint:errcheck
		defer stores[i].Close()
	}

	var cacheAddrs []string
	for i := 0; i < 2; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: coAddr, T: T, Name: fmt.Sprintf("cache-%d", i),
			Logger: quiet, WatchInterval: 25 * time.Millisecond,
			RetryInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		ln, addr, err := listen()
		if err != nil {
			return err
		}
		go ca.Serve(ln) //nolint:errcheck
		defer ca.Close()
		cacheAddrs = append(cacheAddrs, addr)
	}
	balancer, err := freshcache.NewLoadBalancer(freshcache.LBConfig{
		ClusterAddr: coAddr, CacheAddrs: cacheAddrs,
		WatchInterval: 25 * time.Millisecond, Logger: quiet,
	})
	if err != nil {
		return err
	}
	lbLn, lbAddr, err := listen()
	if err != nil {
		return err
	}
	go balancer.Serve(lbLn) //nolint:errcheck
	defer balancer.Close()

	// Preload and truth-track every key.
	const nkeys = 256
	keys := make([]string, nkeys)
	tru := newBenchTruth()
	seed := freshcache.NewClient(lbAddr, freshcache.ClientOptions{})
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		if _, err := seed.Put(keys[i], []byte("0")); err != nil {
			seed.Close()
			return fmt.Errorf("preload: %w", err)
		}
		tru.recordAck(keys[i], 0)
	}
	seed.Close()

	nBuckets := int(benchtime/failoverBucketWidth) + 2
	var (
		mu      sync.Mutex
		buckets = make([]failoverBucket, nBuckets)
		acked   = make(map[string]uint64, nkeys) // high-water acked seq per key
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	start := time.Now()
	record := func(at time.Time, isWrite, isErr bool, staleOver time.Duration) {
		i := int(at.Sub(start) / failoverBucketWidth)
		if i < 0 || i >= nBuckets {
			return
		}
		mu.Lock()
		b := &buckets[i]
		switch {
		case isErr:
			b.Errors++
		case isWrite:
			b.Writes++
		default:
			b.Reads++
			if staleOver > 0 {
				b.Violations++
			}
		}
		mu.Unlock()
	}

	// One writer plus reader workers, all through the LB; request
	// errors during the detection window are expected and recorded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := freshcache.NewClient(lbAddr, freshcache.ClientOptions{})
		defer c.Close()
		seq := uint64(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			key := keys[i%len(keys)]
			_, err := c.Put(key, []byte(strconv.FormatUint(seq, 10)))
			record(time.Now(), true, err != nil, 0)
			if err == nil {
				tru.recordAck(key, seq)
				mu.Lock()
				if seq > acked[key] {
					acked[key] = seq
				}
				mu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := freshcache.NewClient(lbAddr, freshcache.ClientOptions{})
			defer c.Close()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[i%len(keys)]
				t0 := time.Now()
				v, _, err := c.Get(key)
				if err != nil {
					record(t0, false, true, 0)
					time.Sleep(2 * time.Millisecond)
					continue
				}
				seq, perr := strconv.ParseUint(string(v), 10, 64)
				if perr != nil {
					record(t0, false, true, 0)
					continue
				}
				record(t0, false, false, tru.staleBy(key, seq, t0, crashBound))
			}
		}(w)
	}

	// Victim accounting, then the mid-run kill.
	r, err := freshcache.NewRing(storeAddrs, 0)
	if err != nil {
		return err
	}
	victimOwned := 0
	for _, key := range keys {
		if r.OwnerAddr(key) == storeAddrs[0] {
			victimOwned++
		}
	}
	half := benchtime / 2
	time.Sleep(half)
	killAt := time.Since(start)
	stores[0].Close()

	// Wait for the automatic promotion (no operator action).
	promotedAt := time.Duration(0)
	deadline := time.Now().Add(10 * lease)
	for {
		if len(co.RingInfo().Nodes) == nStores-1 {
			promotedAt = time.Since(start)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("failure detector never promoted (ring %v)", co.RingInfo().Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	time.Sleep(benchtime - half)
	close(stop)
	wg.Wait()

	// Lost-write audit: after quiescing past the crash bound, every
	// key must read back at least its last acknowledged sequence.
	time.Sleep(crashBound)
	lost := 0
	audit := freshcache.NewClient(lbAddr, freshcache.ClientOptions{})
	for _, key := range keys {
		v, _, err := audit.Get(key)
		if err != nil {
			lost++
			continue
		}
		got, perr := strconv.ParseUint(string(v), 10, 64)
		mu.Lock()
		want := acked[key]
		mu.Unlock()
		if perr != nil || got < want {
			lost++
		}
	}
	audit.Close()

	report := failoverReport{
		Benchmark:    "kill-store-failover",
		Generated:    time.Now().UTC().Format(time.RFC3339),
		TBoundMS:     float64(T) / float64(time.Millisecond),
		CrashBoundMS: float64(crashBound) / float64(time.Millisecond),
		LeaseMS:      float64(lease) / float64(time.Millisecond),
		Replicas:     2,
		Workers:      workers,
		Keys:         nkeys,
		DurationS:    time.Since(start).Seconds(),
		KillAtS:      killAt.Seconds(),
		PromotedAtS:  promotedAt.Seconds(),
		VictimShare:  float64(victimOwned) / float64(nkeys),
		LostWrites:   lost,
	}
	for i := range buckets {
		b := buckets[i]
		if b.Reads+b.Writes+b.Errors == 0 {
			continue
		}
		b.TSec = float64(i) * failoverBucketWidth.Seconds()
		report.Buckets = append(report.Buckets, b)
		report.TotalReads += b.Reads
		report.TotalWrites += b.Writes
		report.TotalErrors += b.Errors
		report.Violations += b.Violations
	}
	report.NodeMetrics = map[string]map[string]uint64{
		"coordinator": co.Metrics().StatsMap(),
		"lb":          balancer.StatsMap(),
	}
	for i, st := range stores {
		report.NodeMetrics[fmt.Sprintf("store-%d", i)] = st.Metrics().StatsMap()
	}

	w := tw()
	fmt.Fprintln(w, "t (s)\treads\twrites\terrors\tstale>2T")
	for _, b := range report.Buckets {
		fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\n", b.TSec, b.Reads, b.Writes, b.Errors, b.Violations)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("kill at %.2fs, promoted at %.2fs (detection %.0fms, lease %.0fms), victim owned %.3f of keys\n",
		report.KillAtS, report.PromotedAtS,
		(report.PromotedAtS-report.KillAtS)*1000, report.LeaseMS, report.VictimShare)
	fmt.Printf("totals: %d reads, %d writes, %d errors, %d reads staler than 2T, %d lost writes\n",
		report.TotalReads, report.TotalWrites, report.TotalErrors, report.Violations, report.LostWrites)
	if report.Violations > 0 || report.LostWrites > 0 {
		return fmt.Errorf("failover broke the guarantee: %d staleness violations, %d lost writes",
			report.Violations, report.LostWrites)
	}

	if jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
