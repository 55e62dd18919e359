package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"freshcache"
)

// coordFailoverReport is the machine-readable record of a
// kill-the-coordinator-leader run, alongside BENCH_failover.json.
type coordFailoverReport struct {
	Benchmark     string           `json:"benchmark"`
	Generated     string           `json:"generated"`
	TBoundMS      float64          `json:"t_bound_ms"`
	CrashBoundMS  float64          `json:"crash_bound_ms"`
	LeaderLeaseMS float64          `json:"leader_lease_ms"`
	StoreLeaseMS  float64          `json:"store_lease_ms"`
	Coordinators  int              `json:"coordinators"`
	Replicas      int              `json:"replicas"`
	Workers       int              `json:"workers"`
	Keys          int              `json:"keys"`
	DurationS     float64          `json:"duration_s"`
	KillLeaderAtS float64          `json:"kill_leader_at_s"`
	NewLeaderAtS  float64          `json:"new_leader_at_s"`
	LeaderGapMS   float64          `json:"leader_gap_ms"`
	KillStoreAtS  float64          `json:"kill_store_at_s"`
	PromotedAtS   float64          `json:"promoted_at_s"`
	PreCrashEpoch uint64           `json:"pre_crash_epoch"`
	RestoredEpoch uint64           `json:"restored_epoch"`
	RejoinedEpoch uint64           `json:"rejoined_epoch"`
	LostWrites    int              `json:"lost_writes"`
	TotalReads    int              `json:"total_reads"`
	TotalWrites   int              `json:"total_writes"`
	TotalErrors   int              `json:"total_errors"`
	Violations    int              `json:"violations"`
	Buckets       []failoverBucket `json:"buckets"`
}

// coordFailoverBench boots a 3-coordinator replicated control plane
// over a replicated (R=2) 3-store/2-cache/1-LB data plane, drives mixed
// load, kills the coordinator LEADER a third of the way in (asserting a
// follower takes over within a few leader leases), kills a STORE at two
// thirds (asserting the new leader still runs the failure detector),
// and finally restarts the killed coordinator from its data directory,
// asserting it replays its persisted log to its pre-crash ring epoch
// and then catches up to the group. Bounded staleness (≤2T through a
// store crash) and zero lost acked writes must hold throughout — the
// control plane dying must never touch the data plane's guarantee.
func coordFailoverBench(workers int, benchtime time.Duration, tBound float64, jsonPath string) error {
	T := time.Duration(tBound * float64(time.Second))
	if T <= 0 {
		T = 500 * time.Millisecond
	}
	leaderLease := 300 * time.Millisecond
	storeLease := 400 * time.Millisecond
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

	// Store listeners first (the initial ring needs the addresses), then
	// the coordinator group (whose peer list needs ITS addresses before
	// any member starts), then the heartbeating stores.
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

	const nCoords = 3
	coordLns := make([]net.Listener, nCoords)
	coordAddrs := make([]string, nCoords)
	dataDirs := make([]string, nCoords)
	for i := range coordLns {
		ln, addr, err := listen()
		if err != nil {
			return err
		}
		coordLns[i], coordAddrs[i] = ln, addr
		dir, err := os.MkdirTemp("", "freshbench-coord-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dataDirs[i] = dir
	}
	clusterSpec := strings.Join(coordAddrs, ",")

	coords := make([]*freshcache.Coordinator, nCoords)
	for i := range coords {
		co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
			Stores: storeAddrs, Replicas: 2,
			LeaseInterval: storeLease, Logger: quiet,
			SelfAddr: coordAddrs[i], Peers: coordAddrs,
			DataDir: dataDirs[i], LeaderLease: leaderLease,
		})
		if err != nil {
			return err
		}
		coords[i] = co
		go co.Serve(coordLns[i]) //nolint:errcheck
		defer co.Close()
	}

	// leaderIdx polls the group for a member that claims leadership with
	// a live majority lease.
	leaderIdx := func(timeout time.Duration) (int, error) {
		deadline := time.Now().Add(timeout)
		for {
			for i, co := range coords {
				if co == nil {
					continue
				}
				if _, isLeader := co.Leader(); isLeader {
					return i, nil
				}
			}
			if time.Now().After(deadline) {
				return -1, fmt.Errorf("no coordinator leader within %v", timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, err := leaderIdx(20 * leaderLease); err != nil {
		return fmt.Errorf("initial election: %w", err)
	}

	stores := make([]*freshcache.StoreServer, nStores)
	for i := range stores {
		stores[i] = freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
			ClusterAddr: clusterSpec, AdvertiseAddr: storeAddrs[i],
			HeartbeatInterval: storeLease / 8,
		})
		go stores[i].Serve(storeLns[i]) //nolint:errcheck
		defer stores[i].Close()
	}

	var cacheAddrs []string
	for i := 0; i < 2; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: clusterSpec, T: T, Name: fmt.Sprintf("cache-%d", i),
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
		ClusterAddr: clusterSpec, CacheAddrs: cacheAddrs,
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
		acked   = make(map[string]uint64, nkeys)
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

	// ---- Phase 1 (at 1/3): kill the coordinator LEADER. ----
	third := benchtime / 3
	time.Sleep(third)
	victim, err := leaderIdx(10 * leaderLease)
	if err != nil {
		return err
	}
	preCrashEpoch := coords[victim].RingInfo().Epoch
	killLeaderAt := time.Since(start)
	coords[victim].Close()
	coords[victim] = nil

	newLeader, err := leaderIdx(20 * leaderLease)
	if err != nil {
		return fmt.Errorf("after killing leader %s: %w", coordAddrs[victim], err)
	}
	newLeaderAt := time.Since(start)
	leaderGap := newLeaderAt - killLeaderAt
	// Elections come in rounds — a split vote costs one more election
	// timeout, drawn from [lease, 1.5·lease) — so the gap is quantised
	// at about 1.25 leases a round.
	leaderRounds := max(1, int(math.Round(float64(leaderGap)/(1.25*float64(leaderLease)))))

	// ---- Phase 2 (at 2/3): kill a STORE; the new leader must detect
	// and fail it over exactly as a solo coordinator would. ----
	time.Sleep(2*third - time.Since(start))
	// Pick a store the ring still carries (all three are members here).
	killStoreAt := time.Since(start)
	stores[0].Close()
	promotedAt := time.Duration(0)
	deadline := time.Now().Add(10 * storeLease)
	for {
		if len(coords[newLeader].RingInfo().Nodes) == nStores-1 {
			promotedAt = time.Since(start)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("new leader never failed the dead store over (ring %v)",
				coords[newLeader].RingInfo().Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if rest := benchtime - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	close(stop)
	wg.Wait()

	// Lost-write audit past the crash bound.
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

	// ---- Phase 3: restart the killed coordinator from its data
	// directory. Its restored ring epoch must already be at (or past —
	// it may have led a publish the survivors committed) its pre-crash
	// epoch BEFORE any network catch-up, then the group's pulses bring
	// it to the current epoch. ----
	restarted, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: storeAddrs, Replicas: 2,
		LeaseInterval: storeLease, Logger: quiet,
		SelfAddr: coordAddrs[victim], Peers: coordAddrs,
		DataDir: dataDirs[victim], LeaderLease: leaderLease,
	})
	if err != nil {
		return fmt.Errorf("restarting coordinator %s: %w", coordAddrs[victim], err)
	}
	restoredEpoch := restarted.RingInfo().Epoch
	if restoredEpoch < preCrashEpoch {
		restarted.Close()
		return fmt.Errorf("restarted coordinator replayed to epoch %d, want >= pre-crash epoch %d",
			restoredEpoch, preCrashEpoch)
	}
	var rln net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		rln, err = net.Listen("tcp", coordAddrs[victim])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			restarted.Close()
			return fmt.Errorf("rebinding %s: %w", coordAddrs[victim], err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	go restarted.Serve(rln) //nolint:errcheck
	defer restarted.Close()
	groupEpoch := coords[newLeader].RingInfo().Epoch
	rejoined := uint64(0)
	for deadline := time.Now().Add(20 * leaderLease); ; {
		rejoined = restarted.RingInfo().Epoch
		if rejoined >= groupEpoch {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("restarted coordinator stuck at epoch %d, group at %d", rejoined, groupEpoch)
		}
		time.Sleep(10 * time.Millisecond)
	}

	report := coordFailoverReport{
		Benchmark:     "kill-coordinator-failover",
		Generated:     time.Now().UTC().Format(time.RFC3339),
		TBoundMS:      float64(T) / float64(time.Millisecond),
		CrashBoundMS:  float64(crashBound) / float64(time.Millisecond),
		LeaderLeaseMS: float64(leaderLease) / float64(time.Millisecond),
		StoreLeaseMS:  float64(storeLease) / float64(time.Millisecond),
		Coordinators:  nCoords,
		Replicas:      2,
		Workers:       workers,
		Keys:          nkeys,
		DurationS:     time.Since(start).Seconds(),
		KillLeaderAtS: killLeaderAt.Seconds(),
		NewLeaderAtS:  newLeaderAt.Seconds(),
		LeaderGapMS:   float64(leaderGap) / float64(time.Millisecond),
		KillStoreAtS:  killStoreAt.Seconds(),
		PromotedAtS:   promotedAt.Seconds(),
		PreCrashEpoch: preCrashEpoch,
		RestoredEpoch: restoredEpoch,
		RejoinedEpoch: rejoined,
		LostWrites:    lost,
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

	w := tw()
	fmt.Fprintln(w, "t (s)\treads\twrites\terrors\tstale>2T")
	for _, b := range report.Buckets {
		fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\n", b.TSec, b.Reads, b.Writes, b.Errors, b.Violations)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("killed leader at %.2fs, new leader at %.2fs (gap %.0fms, ~%d election rounds, leader lease %.0fms)\n",
		report.KillLeaderAtS, report.NewLeaderAtS, report.LeaderGapMS, leaderRounds, report.LeaderLeaseMS)
	fmt.Printf("killed store at %.2fs, promoted at %.2fs (detection %.0fms, store lease %.0fms)\n",
		report.KillStoreAtS, report.PromotedAtS,
		(report.PromotedAtS-report.KillStoreAtS)*1000, report.StoreLeaseMS)
	fmt.Printf("restart: pre-crash epoch %d, replayed from disk to %d, caught up to %d\n",
		report.PreCrashEpoch, report.RestoredEpoch, report.RejoinedEpoch)
	fmt.Printf("totals: %d reads, %d writes, %d errors, %d reads staler than 2T, %d lost writes\n",
		report.TotalReads, report.TotalWrites, report.TotalErrors, report.Violations, report.LostWrites)
	if report.Violations > 0 || report.LostWrites > 0 {
		return fmt.Errorf("coordinator failover broke the guarantee: %d staleness violations, %d lost writes",
			report.Violations, report.LostWrites)
	}
	// Gated on rounds: the outcomes are quantised, and a duration limit
	// that falls on one of them fails by jitter alone.
	const maxRounds = 4
	if leaderRounds > maxRounds {
		return fmt.Errorf("leader failover took %v (~%d election rounds), want within %d rounds (~%v)",
			leaderGap, leaderRounds, maxRounds, 5*leaderLease)
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
