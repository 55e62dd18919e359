package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"freshcache"
)

const (
	numStores = 2
	numCaches = 2
	// proberKeys are dedicated to the write-visible prober: preloaded
	// and resident on both caches, never touched by the trace.
	proberKeys = 16
	// preloadBatch is the MPUT/MGET size used to load and warm the
	// keyspace during set-up.
	preloadBatch = 256
	preloadConc  = 8
)

// topology is the system under test: 1 coordinator (R=2), 2
// heartbeating stores, 2 cluster-mode caches subscribed to both stores
// and 1 LB, all in this process and all talking loopback TCP through
// the public constructors.
type topology struct {
	coord      *freshcache.Coordinator
	stores     []*freshcache.StoreServer
	caches     []*freshcache.CacheServer
	cacheAddrs []string
	lb         *freshcache.LoadBalancer
	lbAddr     string
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// boot starts every server and returns once each cache is subscribed to
// each store and each store has learned the ring.
func boot(capacity int) (tp *topology, err error) {
	quiet := log.New(io.Discard, "", 0)
	tp = &topology{}
	defer func() {
		if err != nil {
			tp.close()
		}
	}()

	// Store listeners first: the coordinator's initial ring needs their
	// addresses, and the stores need the coordinator to heartbeat.
	lns := make([]net.Listener, numStores)
	addrs := make([]string, numStores)
	for i := range lns {
		if lns[i], err = listen(); err != nil {
			return tp, err
		}
		addrs[i] = lns[i].Addr().String()
	}
	// A generous lease: a saturated 2-core box may delay a heartbeat,
	// and a false failover would move key ownership mid-run.
	const lease = 10 * time.Second
	tp.coord, err = freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: addrs, Replicas: 2, LeaseInterval: lease, Logger: quiet,
	})
	if err != nil {
		return tp, err
	}
	cln, err := listen()
	if err != nil {
		return tp, err
	}
	go tp.coord.Serve(cln) //nolint:errcheck // returns when closed
	coordAddr := cln.Addr().String()

	for i, ln := range lns {
		st := freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
			ClusterAddr: coordAddr, AdvertiseAddr: addrs[i],
			HeartbeatInterval: 50 * time.Millisecond,
		})
		go st.Serve(ln) //nolint:errcheck // returns when closed
		tp.stores = append(tp.stores, st)
	}
	for i := 0; i < numCaches; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: coordAddr, T: T, Capacity: capacity,
			Name: fmt.Sprintf("c%d", i), Logger: quiet,
			RetryInterval: 10 * time.Millisecond, WatchInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return tp, err
		}
		ln, err := listen()
		if err != nil {
			ca.Close()
			return tp, err
		}
		go ca.Serve(ln) //nolint:errcheck // returns when closed
		tp.caches = append(tp.caches, ca)
		tp.cacheAddrs = append(tp.cacheAddrs, ln.Addr().String())
	}
	tp.lb, err = freshcache.NewLoadBalancer(freshcache.LBConfig{
		ClusterAddr: coordAddr, CacheAddrs: tp.cacheAddrs, Logger: quiet,
	})
	if err != nil {
		return tp, err
	}
	lln, err := listen()
	if err != nil {
		return tp, err
	}
	go tp.lb.Serve(lln) //nolint:errcheck // returns when closed
	tp.lbAddr = lln.Addr().String()

	deadline := time.Now().Add(10 * time.Second)
	for _, st := range tp.stores {
		for {
			sm := st.Metrics().StatsMap()
			if sm["subscribers"] >= numCaches && sm["ring_epoch"] >= 1 && sm["replicas"] >= 2 {
				break
			}
			if time.Now().After(deadline) {
				return tp, fmt.Errorf("store never became ready: %v", sm)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return tp, nil
}

// close stops every server, front to back, and waits for each.
func (tp *topology) close() {
	if tp.lb != nil {
		tp.lb.Close()
	}
	for _, ca := range tp.caches {
		ca.Close()
	}
	for _, st := range tp.stores {
		st.Close()
	}
	if tp.coord != nil {
		tp.coord.Close()
	}
}

func keyName(id uint32) string  { return fmt.Sprintf("k%07d", id) }
func proberKey(i int) string    { return fmt.Sprintf("probe%02d", i) }
func proberID(i int) uint32     { return 1<<31 | uint32(i) }
func valueID(v []byte) uint32   { return binary.BigEndian.Uint32(v) }
func stamp(v []byte, id uint32) { binary.BigEndian.PutUint32(v, id) }
func newValue(id uint32, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	stamp(v, id)
	return v
}

// keyNames returns the key strings of an n-key workload, built once so
// the measured loops format nothing.
func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyName(uint32(i))
	}
	return keys
}

// preload writes every key by MPUT through the LB (each write replicates
// before it is acked), recording the versions the stores assigned in tk,
// then reads the keys that can be resident once so the caches are warm.
func (tp *topology) preload(w *workloadSpec, keys []string, tk *tracker) error {
	c := freshcache.NewClient(tp.lbAddr, freshcache.ClientOptions{MaxConns: genMaxConns})
	defer c.Close()

	n := len(keys)
	if err := forChunks(n, func(lo, hi int) error {
		vals := make([][]byte, hi-lo)
		for i := range vals {
			vals[i] = newValue(uint32(lo+i), w.valSize)
		}
		res, err := c.MPut(keys[lo:hi], vals)
		if err != nil {
			return err
		}
		for i, r := range res {
			if r.Err != nil {
				return r.Err
			}
			tk.preloaded(uint32(lo+i), r.Version)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("preload: %w", err)
	}

	// With bounded caches only the hottest ranks can stay resident;
	// reading the whole universe would just churn the LRU.
	warm := n
	if w.capacity > 0 && warm > numCaches*w.capacity {
		warm = numCaches * w.capacity
	}
	if err := forChunks(warm, func(lo, hi int) error {
		res, err := c.MGet(keys[lo:hi])
		if err != nil {
			return err
		}
		for i, r := range res {
			if !r.Found || valueID(r.Value) != uint32(lo+i) {
				return fmt.Errorf("key %s read back wrong", keys[lo+i])
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("warm: %w", err)
	}

	// Prober keys: written through the LB, then read from each cache
	// directly so both hold a resident copy (the LB alone would send a
	// key to its one affinity cache).
	for i := 0; i < proberKeys; i++ {
		if _, err := c.Put(proberKey(i), newValue(proberID(i), w.valSize)); err != nil {
			return fmt.Errorf("preload prober key: %w", err)
		}
	}
	for _, addr := range tp.cacheAddrs {
		cc := freshcache.NewClient(addr, freshcache.ClientOptions{})
		for i := 0; i < proberKeys; i++ {
			if _, _, err := cc.Get(proberKey(i)); err != nil {
				cc.Close()
				return fmt.Errorf("warm prober key: %w", err)
			}
		}
		cc.Close()
	}
	return nil
}

// forChunks runs fn over [0,n) in preloadBatch-sized chunks on
// preloadConc goroutines and returns the first error.
func forChunks(n int, fn func(lo, hi int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for g := 0; g < preloadConc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				lo := next
				next += preloadBatch
				failed := first != nil
				mu.Unlock()
				if lo >= n || failed {
					return
				}
				hi := min(lo+preloadBatch, n)
				if err := fn(lo, hi); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
