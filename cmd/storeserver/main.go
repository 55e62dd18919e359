// Command storeserver runs the freshcache backing store: the
// authoritative KV plus the write-reactive freshness flusher that pushes
// batched invalidates/updates to subscribed caches, every write within the
// staleness bound T and no key more than once per T (Figure 4 of the paper).
//
// Usage:
//
//	storeserver -addr :7001 -t 500ms [-shard shard-0] [-slo 0.05]
//	            [-cm 2 -ci 0.25 -cu 1]
//	            [-bottleneck auto|cpu|network|disk] [-keysize 16 -valsize 256]
//	            [-cluster 127.0.0.1:7301[,127.0.0.1:7302,...] -join
//	             [-advertise host:port] [-heartbeat 500ms]]
//
// In a sharded deployment run one storeserver per shard, each with a
// distinct -shard identity; caches and the LB partition the keyspace
// across them by consistent hashing over their addresses.
//
// With -cluster and -join the server registers itself with the cluster
// coordinator once it is serving: the coordinator migrates the ring
// arc this store now owns from the current owners, publishes a new
// ring epoch, and every watching cache/LB reroutes — live scale-out in
// one command. -advertise sets the address the rest of the cluster
// dials (defaults to -addr with a loopback host when unspecified).
//
// With -bottleneck auto the server samples /proc twice at startup and
// derives the c_m/c_i/c_u parameters from the detected bottleneck (§3.3);
// explicit -cm/-ci/-cu flags override everything.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"freshcache"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/obs"
	"freshcache/internal/sysprobe"
)

func main() {
	addr := flag.String("addr", ":7001", "listen address")
	shard := flag.String("shard", "", "shard identity echoed to subscribers (default shard@addr)")
	t := flag.Duration("t", 500*time.Millisecond, "staleness bound: the longest a write waits for its push")
	slo := flag.Float64("slo", 0, "staleness-miss-ratio SLO (0 disables)")
	cm := flag.Float64("cm", 0, "miss cost c_m (0 = derive)")
	ci := flag.Float64("ci", 0, "invalidate cost c_i (0 = derive)")
	cu := flag.Float64("cu", 0, "update cost c_u (0 = derive)")
	bottleneck := flag.String("bottleneck", "", "auto|cpu|network|disk: derive costs from a bottleneck")
	keySize := flag.Int("keysize", 16, "representative key size for derived costs")
	valSize := flag.Int("valsize", 256, "representative value size for derived costs")
	topk := flag.Int("topk", 1024, "exact slots in the Top-K E[W] tracker")
	clusterAddr := flag.String("cluster", "", "cluster coordinator address (comma-separated list under coordinator HA)")
	join := flag.Bool("join", false, "join the cluster ring at startup (requires -cluster)")
	advertise := flag.String("advertise", "", "address the cluster dials this store at (default -addr)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond,
		"liveness lease renewal interval (requires -cluster; keep well under the coordinator's -lease)")
	obsAddr := flag.String("obs", "", "serve /metrics and /debug/pprof/ on this address (e.g. 127.0.0.1:6061; empty = off)")
	slowTrace := flag.Duration("slowtrace", 0, "log traced requests at least this slow (0 = off)")
	flag.Parse()

	if *shard == "" {
		*shard = "shard@" + *addr
	}
	if *advertise == "" {
		*advertise = *addr
		if strings.HasPrefix(*advertise, ":") {
			*advertise = "127.0.0.1" + *advertise
		}
	}
	costs, err := resolveCosts(*cm, *ci, *cu, *bottleneck, *keySize, *valSize)
	if err != nil {
		log.Fatalf("storeserver: %v", err)
	}
	log.Printf("storeserver %s: T=%v costs: cm=%.4g ci=%.4g cu=%.4g slo=%g",
		*shard, *t, costs.Cm, costs.Ci, costs.Cu, *slo)

	tracker, err := freshcache.NewTopK(*topk, *topk*16, 4)
	if err != nil {
		log.Fatalf("storeserver: %v", err)
	}
	cfg := freshcache.StoreConfig{
		ShardID:            *shard,
		T:                  *t,
		SlowTraceThreshold: *slowTrace,
		Engine: core.Config{
			Costs:   costs,
			SLO:     *slo,
			Tracker: tracker,
		},
	}
	if *clusterAddr != "" {
		// Heartbeat the coordinator: renews this store's liveness lease
		// (the failure detector's input) and pulls ring anti-entropy.
		cfg.ClusterAddr = *clusterAddr
		cfg.AdvertiseAddr = *advertise
		cfg.HeartbeatInterval = *heartbeat
	}
	srv := freshcache.NewStoreServer(cfg)
	if *obsAddr != "" {
		obs.Serve(*obsAddr, "storeserver", srv.Metrics(), nil)
	}
	if *clusterAddr != "" && *join {
		go joinCluster(*clusterAddr, *advertise)
	}
	log.Printf("storeserver: listening on %s", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "storeserver: %v\n", err)
		os.Exit(1)
	}
}

// joinCluster waits until this store answers pings at its advertised
// address, then asks the coordinator group to admit it (which migrates
// this store's ring arc in before publishing the new epoch). coordAddr
// may list several coordinators; the join follows leader redirects.
func joinCluster(coordAddr, advertise string) {
	self := freshcache.NewClient(advertise, freshcache.ClientOptions{MaxAttempts: 1})
	deadline := time.Now().Add(10 * time.Second)
	for self.Ping() != nil {
		if time.Now().After(deadline) {
			self.Close()
			log.Printf("storeserver: not serving at advertised %s; skipping cluster join", advertise)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	self.Close()
	co := freshcache.NewCoordClient(coordAddr, freshcache.ClientOptions{
		MaxAttempts: 1, RequestTimeout: 2 * time.Minute,
	})
	defer co.Close()
	if cur, err := co.RingGet(); err == nil {
		for _, n := range cur.Nodes {
			if n == advertise {
				log.Printf("storeserver: already a ring member at epoch %d", cur.Epoch)
				return
			}
		}
	}
	ri, err := co.Join(advertise)
	if err != nil {
		log.Printf("storeserver: cluster join via %s failed: %v", coordAddr, err)
		return
	}
	log.Printf("storeserver: joined cluster ring epoch %d (%d stores)", ri.Epoch, len(ri.Nodes))
}

func resolveCosts(cm, ci, cu float64, bottleneck string, keySize, valSize int) (freshcache.Costs, error) {
	if cm > 0 && ci > 0 && cu > 0 {
		return freshcache.FixedCosts(cm, ci, cu), nil
	}
	prims := freshcache.MeasuredPrimitives(0)
	switch bottleneck {
	case "":
		return freshcache.DefaultSimCosts(), nil
	case "auto":
		var p sysprobe.Prober
		a, err := p.Snapshot()
		if err != nil {
			return freshcache.Costs{}, fmt.Errorf("probing: %w", err)
		}
		time.Sleep(500 * time.Millisecond)
		b, err := p.Snapshot()
		if err != nil {
			return freshcache.Costs{}, fmt.Errorf("probing: %w", err)
		}
		u, err := sysprobe.Delta(a, b)
		if err != nil {
			return freshcache.Costs{}, err
		}
		bn := sysprobe.Classify(u, sysprobe.Capacities{NetBytesPerSec: 1.25e9, DiskBytesPerSec: 5e8})
		log.Printf("storeserver: detected bottleneck: %v", bn)
		return prims.For(bn, keySize, valSize), nil
	default:
		bn, err := costmodel.ParseBottleneck(bottleneck)
		if err != nil {
			return freshcache.Costs{}, err
		}
		return prims.For(bn, keySize, valSize), nil
	}
}
