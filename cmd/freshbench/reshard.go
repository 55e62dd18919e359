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

// reshardBucket is one 100ms slice of the load trajectory around the
// live join.
type reshardBucket struct {
	TSec       float64 `json:"t_s"`
	Reads      int     `json:"reads"`
	Writes     int     `json:"writes"`
	Errors     int     `json:"errors"`
	Violations int     `json:"violations"` // reads staler than the bound
}

// reshardReport is the machine-readable record of a live resharding
// run (BENCH_reshard.json).
type reshardReport struct {
	Benchmark     string          `json:"benchmark"`
	Generated     string          `json:"generated"`
	TBoundMS      float64         `json:"t_bound_ms"`
	Workers       int             `json:"workers"`
	Keys          int             `json:"keys"`
	DurationS     float64         `json:"duration_s"`
	JoinAtS       float64         `json:"join_at_s"`
	PublishedAtS  float64         `json:"published_at_s"`
	MovedFraction float64         `json:"moved_fraction"`
	TotalReads    int             `json:"total_reads"`
	TotalWrites   int             `json:"total_writes"`
	TotalErrors   int             `json:"total_errors"`
	Violations    int             `json:"violations"`
	Buckets       []reshardBucket `json:"buckets"`
}

const reshardBucketWidth = 100 * time.Millisecond

// reshardBench boots a live coordinator-managed 2-store/2-cache/1-LB
// cluster on loopback, drives mixed load, joins a third store halfway
// through, and records the throughput / staleness-violation
// trajectory across the handoff.
func reshardBench(workers int, benchtime time.Duration, tBound float64, jsonPath string) error {
	T := time.Duration(tBound * float64(time.Second))
	if T <= 0 {
		T = 500 * time.Millisecond
	}
	if benchtime < 4*T {
		benchtime = 4 * T
	}
	quiet := log.New(io.Discard, "", 0)

	listen := func() (net.Listener, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		return ln, ln.Addr().String(), nil
	}
	startStore := func(i int) (*freshcache.StoreServer, string, error) {
		st := freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
		})
		ln, addr, err := listen()
		if err != nil {
			return nil, "", err
		}
		go st.Serve(ln) //nolint:errcheck
		return st, addr, nil
	}

	st0, addr0, err := startStore(0)
	if err != nil {
		return err
	}
	defer st0.Close()
	st1, addr1, err := startStore(1)
	if err != nil {
		return err
	}
	defer st1.Close()

	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: []string{addr0, addr1}, Logger: quiet,
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

	var cacheAddrs []string
	for i := 0; i < 2; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: coAddr, T: T, Name: fmt.Sprintf("cache-%d", i), Logger: quiet,
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
		ClusterAddr: coAddr, CacheAddrs: cacheAddrs, Logger: quiet,
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

	nBuckets := int(benchtime/reshardBucketWidth) + 2
	var (
		mu      sync.Mutex
		buckets = make([]reshardBucket, nBuckets)
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	start := time.Now()
	record := func(at time.Time, isWrite, isErr bool, staleOver time.Duration) {
		i := int(at.Sub(start) / reshardBucketWidth)
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

	// One writer in round-robin plus reader workers, as in the e2e
	// acceptance test, all through the LB.
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
					continue
				}
				seq, perr := strconv.ParseUint(string(v), 10, 64)
				if perr != nil {
					record(t0, false, true, 0)
					continue
				}
				record(t0, false, false, tru.staleBy(key, seq, t0, T))
			}
		}(w)
	}

	// Mid-run: boot and join the third store, live.
	half := benchtime / 2
	time.Sleep(half)
	joinAt := time.Since(start)
	oldRing, err := freshcache.NewRing([]string{addr0, addr1}, 0)
	if err != nil {
		return err
	}
	st2, addr2, err := startStore(2)
	if err != nil {
		return err
	}
	defer st2.Close()
	ri, err := co.Join(addr2)
	if err != nil {
		return fmt.Errorf("live join: %w", err)
	}
	publishedAt := time.Since(start)
	newRing, err := freshcache.NewRing(ri.Nodes, ri.VirtualNodes)
	if err != nil {
		return err
	}
	moved := 0
	for _, key := range keys {
		if oldRing.OwnerAddr(key) != newRing.OwnerAddr(key) {
			moved++
		}
	}

	time.Sleep(benchtime - half)
	close(stop)
	wg.Wait()

	report := reshardReport{
		Benchmark:     "live-reshard-join",
		Generated:     time.Now().UTC().Format(time.RFC3339),
		TBoundMS:      float64(T) / float64(time.Millisecond),
		Workers:       workers,
		Keys:          nkeys,
		DurationS:     time.Since(start).Seconds(),
		JoinAtS:       joinAt.Seconds(),
		PublishedAtS:  publishedAt.Seconds(),
		MovedFraction: float64(moved) / float64(nkeys),
	}
	for i := range buckets {
		b := buckets[i]
		if b.Reads+b.Writes+b.Errors == 0 {
			continue
		}
		b.TSec = float64(i) * reshardBucketWidth.Seconds()
		report.Buckets = append(report.Buckets, b)
		report.TotalReads += b.Reads
		report.TotalWrites += b.Writes
		report.TotalErrors += b.Errors
		report.Violations += b.Violations
	}

	w := tw()
	fmt.Fprintln(w, "t (s)\treads\twrites\terrors\tstale>T")
	for _, b := range report.Buckets {
		fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\n", b.TSec, b.Reads, b.Writes, b.Errors, b.Violations)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("join at %.2fs, ring epoch %d published at %.2fs, moved fraction %.3f (ideal 0.333)\n",
		report.JoinAtS, ri.Epoch, report.PublishedAtS, report.MovedFraction)
	fmt.Printf("totals: %d reads, %d writes, %d errors, %d reads staler than T\n",
		report.TotalReads, report.TotalWrites, report.TotalErrors, report.Violations)

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
	if report.Violations > 0 || report.TotalErrors > 0 {
		return fmt.Errorf("reshard broke the guarantee: %d staleness violations, %d failed operations",
			report.Violations, report.TotalErrors)
	}
	return nil
}

// benchTruth is the staleness oracle: per key, the acknowledged write
// sequence numbers and their ack times.
type benchTruth struct {
	mu   sync.Mutex
	acks map[string][]benchAck
}

type benchAck struct {
	seq uint64
	at  time.Time
}

func newBenchTruth() *benchTruth { return &benchTruth{acks: make(map[string][]benchAck)} }

func (tr *benchTruth) recordAck(key string, seq uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := append(tr.acks[key], benchAck{seq: seq, at: time.Now()})
	if len(a) > 16 {
		a = a[len(a)-16:]
	}
	tr.acks[key] = a
}

// staleBy returns how far beyond the bound a read of seq at readStart
// is, given the newer acknowledged writes (zero = within bound).
func (tr *benchTruth) staleBy(key string, seq uint64, readStart time.Time, bound time.Duration) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	worst := time.Duration(0)
	for _, a := range tr.acks[key] {
		if a.seq > seq {
			if d := readStart.Sub(a.at) - bound; d > worst {
				worst = d
			}
		}
	}
	return worst
}
