// Command freshbench regenerates the paper's evaluation: one subcommand
// per table/figure plus the ablations, a live end-to-end run, and the
// membership-change scenarios (reshard, failover) under load. Throughput
// and latency claims are not made here: bench/run.sh (BENCHMARK.json)
// measures the read and write-to-visible path.
//
// Usage:
//
//	freshbench <experiment> [flags]
//
// Experiments:
//
//	fig2     TTL-expiry staleness cost vs staleness bound (sim + theory)
//	fig3     TTL-polling freshness cost vs staleness bound (sim + theory)
//	fig5     seven-policy comparison over the four workloads
//	fig6     E[W] sketch latency / accuracy / storage saving
//	table1   c_m/c_i/c_u breakdown from primitives measured on this host
//	sec31    the §3.1 worked example
//	ablate   batching-interval, decision-rule and cache-knowledge ablations
//	live     boot a real store+cache cluster and validate bounded staleness
//	reshard  join a third store into a live cluster under load and record
//	         the throughput/staleness-violation trajectory
//	failover kill one store of a replicated (R=2) live cluster under load
//	         and record the trajectory through the automatic promotion;
//	         with -killcoord, run a 3-coordinator replicated control
//	         plane, kill its LEADER mid-run (then a store, then restart
//	         the killed coordinator from disk) and record the whole
//	         trajectory
//	all      everything above (except reshard and failover)
//
// Flags:
//
//	-duration float     trace length in virtual seconds (default 300)
//	-seed uint          workload seed (default 1)
//	-t float            staleness bound for fig5/fig6/live (default 0.5)
//	-stores int         store shards booted by live (default 1)
//	-workers int        concurrent workers for reshard/failover (default 64)
//	-benchtime duration wall-clock window for reshard/failover (default 4s; 6s with -killcoord)
//	-json               reshard/failover: also write BENCH_<name>.json
//	-killcoord          failover: kill the coordinator leader (HA control plane)
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"freshcache"
	"freshcache/internal/experiments"
	"freshcache/internal/sysprobe"
	"freshcache/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	duration := fs.Float64("duration", 300, "trace length in virtual seconds")
	seed := fs.Uint64("seed", 1, "workload seed")
	tBound := fs.Float64("t", 0.5, "staleness bound (s) for fig5/fig6/live")
	storesN := fs.Int("stores", 1, "store shards booted by the live experiment")
	workers := fs.Int("workers", 64, "concurrent workers for reshard/failover")
	benchtime := fs.Duration("benchtime", 0, "wall-clock window for reshard/failover (default 4s; 6s with -killcoord)")
	jsonOut := fs.Bool("json", false, "reshard/failover: also write BENCH_<name>.json")
	killcoord := fs.Bool("killcoord", false, "failover: kill the coordinator LEADER of a 3-coordinator control plane instead of a store only")
	fs.Parse(os.Args[2:]) //nolint:errcheck // ExitOnError

	o := experiments.Options{Duration: *duration, Seed: *seed, T: *tBound}
	live := func(o experiments.Options) error { return liveCluster(o, *storesN) }
	reshard := func(o experiments.Options) error {
		out := ""
		if *jsonOut {
			out = "BENCH_reshard.json"
		}
		bt := *benchtime
		if bt == 0 { // unset: reshard needs room around the mid-run join
			bt = 4 * time.Second
		}
		return reshardBench(*workers, bt, o.T, out)
	}
	failover := func(o experiments.Options) error {
		if *killcoord {
			out := ""
			if *jsonOut {
				out = "BENCH_coordfailover.json"
			}
			bt := *benchtime
			if bt == 0 { // three phases: kill leader, kill store, restart
				bt = 6 * time.Second
			}
			return coordFailoverBench(*workers, bt, o.T, out)
		}
		out := ""
		if *jsonOut {
			out = "BENCH_failover.json"
		}
		bt := *benchtime
		if bt == 0 { // unset: failover needs room around the mid-run kill
			bt = 4 * time.Second
		}
		return failoverBench(*workers, bt, o.T, out)
	}

	run := func(name string, fn func(experiments.Options) error) {
		fmt.Printf("== %s ==\n", name)
		if err := fn(o); err != nil {
			fmt.Fprintf(os.Stderr, "freshbench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	switch cmd {
	case "fig2":
		run("Figure 2: TTL-expiry C'_S vs staleness bound", fig2)
	case "fig3":
		run("Figure 3: TTL-polling C'_F vs staleness bound", fig3)
	case "fig5":
		run("Figure 5: policy comparison", fig5)
	case "fig6":
		run("Figure 6: sketch comparison", fig6)
	case "table1":
		run("Table 1: cost parameter breakdown", table1)
	case "sec31":
		run("§3.1 worked example", sec31)
	case "ablate":
		run("Ablations", ablate)
	case "live":
		run("Live cluster validation", live)
	case "reshard":
		run("Live resharding under load", reshard)
	case "failover":
		if *killcoord {
			run("Kill-the-coordinator-leader failover under load", failover)
		} else {
			run("Kill-a-store failover under load", failover)
		}
	case "probe":
		run("Bottleneck probe", probe)
	case "all":
		run("Figure 2: TTL-expiry C'_S vs staleness bound", fig2)
		run("Figure 3: TTL-polling C'_F vs staleness bound", fig3)
		run("Figure 5: policy comparison", fig5)
		run("Figure 6: sketch comparison", fig6)
		run("Table 1: cost parameter breakdown", table1)
		run("§3.1 worked example", sec31)
		run("Ablations", ablate)
		run("Live cluster validation", live)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: freshbench <fig2|fig3|fig5|fig6|table1|sec31|ablate|live|reshard|failover|probe|all> [flags]
run "freshbench <experiment> -h" for flags`)
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func fig2(o experiments.Options) error {
	pts, err := experiments.Fig2(o)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "workload\tT (s)\tsim C'_S (%)\ttheory C'_S (%)")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%g\t%.2f\t%.2f\n", p.Workload, p.T, p.Sim*100, p.Theory*100)
	}
	return w.Flush()
}

func fig3(o experiments.Options) error {
	pts, err := experiments.Fig3(o)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "workload\tT (s)\tsim C'_F (x)\ttheory C'_F (x)")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%g\t%.4g\t%.4g\n", p.Workload, p.T, p.Sim, p.Theory)
	}
	return w.Flush()
}

func fig5(o experiments.Options) error {
	rows, err := experiments.Fig5(o)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "workload\tpolicy\tC'_F (x)\tC'_S (%)\tinv\tupd\tstale\tcold")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.4g\t%.3g\t%d\t%d\t%d\t%d\n",
			r.Workload, r.Policy, r.CFNorm, r.CSNorm*100,
			r.Result.Invalidations, r.Result.Updates,
			r.Result.StaleMisses, r.Result.ColdMisses)
	}
	return w.Flush()
}

func fig6(o experiments.Options) error {
	rows, err := experiments.Fig6(o)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintf(w, "workload\tsketch\tlatency (us/req)\taccuracy (%%)\tstorage saving (x)\tbytes\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.1f\t%.1f\t%d\n",
			r.Workload, r.Sketch, r.LatencyUS, r.Accuracy*100, r.StorageSaving, r.Bytes)
	}
	fmt.Fprintf(w, "(network delay reference: %.0f us)\n", experiments.NetworkReferenceUS)
	return w.Flush()
}

func table1(experiments.Options) error {
	res := experiments.Table1(16, 256)
	fmt.Printf("measured primitives (us): ser=%.4f+%.6f/B deser=%.4f+%.6f/B read=%.4f update=%.4f delete=%.4f\n",
		res.Primitives.SerFixed, res.Primitives.SerPerByte,
		res.Primitives.DeserFixed, res.Primitives.DeserPerByte,
		res.Primitives.ReadFixed, res.Primitives.UpdateFixed, res.Primitives.DeleteFixed)
	fmt.Printf("key size %dB, value size %dB\n", res.KeySize, res.ValSize)
	w := tw()
	fmt.Fprintln(w, "parameter\tcache side (us)\tstore side (us)\ttotal (us)\tbreakdown")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%s\n",
			r.Parameter, r.CacheSide, r.StoreSide, r.Total, r.Definition)
	}
	return w.Flush()
}

func sec31(experiments.Options) error {
	r := experiments.Sec31()
	fmt.Printf("invalidation C_F coefficient of (c_i+c_m): %.5f  (paper: 0.00892)\n", r.InvalidationCoeff)
	fmt.Printf("ttl-expiry  C_F coefficient of c_m:        %.5f  (paper: 0.086)\n", r.TTLExpiryCoeff)
	return nil
}

func ablate(o experiments.Options) error {
	print := func(title string, rows []experiments.AblationRow, err error) error {
		if err != nil {
			return err
		}
		fmt.Printf("-- %s --\n", title)
		w := tw()
		fmt.Fprintln(w, "config\tC'_F (x)\tC'_S (%)\tdetail")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.4g\t%.3g\t%s\n", r.Name, r.CFNorm, r.CSNorm*100, r.Extra)
		}
		return w.Flush()
	}
	rows, err := experiments.AblateBatching(o)
	if err := print("batching interval (adaptive, poisson-mix)", rows, err); err != nil {
		return err
	}
	rows, err = experiments.AblateDecisionRule(o)
	if err := print("decision rule: full §3.2 vs E[W] approximation", rows, err); err != nil {
		return err
	}
	rows, err = experiments.AblateCacheKnowledge(o)
	return print("cache-state knowledge (Adpt vs Adpt+CS)", rows, err)
}

// liveCluster boots nStores store shards + a cache on loopback, replays
// a workload, and validates bounded staleness with wall clocks — per
// shard when sharded.
func liveCluster(o experiments.Options, nStores int) error {
	T := time.Duration(o.T * float64(time.Second))
	if T <= 0 {
		T = 500 * time.Millisecond
	}
	if nStores <= 0 {
		nStores = 1
	}
	storeAddrs := make([]string, 0, nStores)
	for i := 0; i < nStores; i++ {
		st := freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i),
		})
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go st.Serve(sln) //nolint:errcheck
		defer st.Close()
		storeAddrs = append(storeAddrs, sln.Addr().String())
	}

	ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
		StoreAddrs: storeAddrs, T: T, Name: "bench-cache",
	})
	if err != nil {
		return err
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go ca.Serve(cln) //nolint:errcheck
	defer ca.Close()

	c := freshcache.NewClient(cln.Addr().String(), freshcache.ClientOptions{})
	defer c.Close()

	// Drive a skewed read/write mix for a few seconds; track per-key
	// last-acknowledged writes older than T and verify reads see them.
	rng := xrand.New(o.Seed, 9)
	zipf := xrand.NewZipf(rng, 1.2, 256)
	type lastWrite struct {
		value string
		at    time.Time
	}
	writes := map[int]lastWrite{}
	var reads, staleViolations, writesDone int
	deadline := time.Now().Add(3 * time.Second)
	seqn := 0
	for time.Now().Before(deadline) {
		k := zipf.Sample()
		key := fmt.Sprintf("key-%03d", k)
		if rng.Bool(0.2) {
			seqn++
			val := fmt.Sprintf("v%06d", seqn)
			if _, err := c.Put(key, []byte(val)); err != nil {
				return fmt.Errorf("put: %w", err)
			}
			writes[k] = lastWrite{value: val, at: time.Now()}
			writesDone++
		} else {
			v, _, err := c.Get(key)
			if err != nil {
				if err == freshcache.ErrNotFound || writes[k].value == "" {
					continue
				}
				return fmt.Errorf("get: %w", err)
			}
			reads++
			lw := writes[k]
			// Allow T for batching plus 50% delivery slack.
			if lw.value != "" && time.Since(lw.at) > T+T/2 && string(v) != lw.value {
				staleViolations++
			}
		}
	}
	sm := ca.StatsMap()
	stats, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("T=%v  stores=%d  reads=%d writes=%d\n", T, nStores, reads, writesDone)
	fmt.Printf("cache: hits=%d stale-misses=%d cold-misses=%d inv-applied=%d upd-applied=%d\n",
		sm["hits"], sm["stale_misses"], sm["cold_misses"],
		sm["invalidates_applied"], sm["updates_applied"])
	hitRate := float64(sm["hits"]) / float64(max64(sm["gets"], 1)) * 100
	fmt.Printf("hit rate: %.1f%%   staleness violations (> T + slack): %d\n", hitRate, staleViolations)
	fmt.Print("cache counters:")
	for _, k := range sortedKeys(stats) {
		fmt.Printf(" %s=%d", k, stats[k])
	}
	fmt.Println()
	if staleViolations > 0 {
		return fmt.Errorf("bounded staleness violated %d times", staleViolations)
	}
	fmt.Println("bounded staleness: OK")
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// probe samples /proc twice and classifies the host bottleneck (§3.3).
func probe(experiments.Options) error {
	var p sysprobe.Prober
	a, err := p.Snapshot()
	if err != nil {
		return fmt.Errorf("first snapshot: %w", err)
	}
	time.Sleep(500 * time.Millisecond)
	b, err := p.Snapshot()
	if err != nil {
		return fmt.Errorf("second snapshot: %w", err)
	}
	u, err := sysprobe.Delta(a, b)
	if err != nil {
		return err
	}
	caps := sysprobe.Capacities{NetBytesPerSec: 1.25e9, DiskBytesPerSec: 5e8}
	fmt.Printf("cpu=%.1f%% net=%.2fMB/s disk=%.2fMB/s disk-busy=%.1f%%\n",
		u.CPUFrac*100, u.NetBytesPerSec/1e6, u.DiskBytesPerSec/1e6, u.DiskBusyFrac*100)
	fmt.Printf("classified bottleneck: %v\n", sysprobe.Classify(u, caps))
	return nil
}

// sortedKeys is a tiny helper for deterministic stats printing.
func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
