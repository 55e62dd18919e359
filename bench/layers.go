package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"freshcache"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/sketch"
	"freshcache/internal/stats"
)

// Layer micro-timings: timed loops over each layer's exported functions,
// inputs sized like the workloads. They explain the end-to-end figures
// as a sum of parts and pin a regression to a layer; none carries a
// bound.

// sink keeps the compiler from discarding a measured call's result.
var sink int

// timeOp runs op back to back for about budget and returns its mean
// cost in nanoseconds and heap allocations.
func timeOp(budget time.Duration, op func()) (ns, allocs float64) {
	op() // first-use set-up is not the steady state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, start := 0, time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 64; i++ {
			op()
		}
		n += 64
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// layerKeys are the key names the loops cycle through; 16-byte keys, the
// K the cost model is evaluated at.
func layerKeys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("layer-key-%06d", i)
	}
	return ks
}

// layerMetrics runs every micro loop for budget each. valSize is the
// workload's value size, used where a loop's cost depends on it.
func layerMetrics(res *result, budget time.Duration, valSize int) error {
	keys := layerKeys(10000)
	val128, val1k := newValue(1, 128), newValue(1, 1024)
	next := 0
	key := func() string { next++; return keys[next%len(keys)] }
	ns := func(name string, op func()) float64 {
		t, _ := timeOp(budget, op)
		res.set(name, t)
		return t
	}

	// proto: the frame codec.
	var buf []byte
	encode := func(m *proto.Msg) func() {
		return func() {
			var err error
			if buf, err = proto.AppendFrame(buf[:0], m); err != nil {
				panic(err)
			}
		}
	}
	keys16 := keys[:batchKeys]
	get := &proto.Msg{Type: proto.MsgGet, Seq: 7, Key: keys[0]}
	resp128 := &proto.Msg{Type: proto.MsgGetResp, Seq: 7, Value: val128, Version: 9}
	resp1k := &proto.Msg{Type: proto.MsgGetResp, Seq: 7, Value: val1k, Version: 9}
	mget16 := &proto.Msg{Type: proto.MsgMGet, Seq: 7, Keys: keys16}
	encGet := ns("proto.encode_get_ns", encode(get))
	encResp128 := ns("proto.encode_resp128_ns", encode(resp128))
	encResp1k := ns("proto.encode_resp1k_ns", encode(resp1k))
	ns("proto.encode_mget16_ns", encode(mget16))

	// Decoding reads a stream of identical frames the way a connection's
	// read loop does: one Reader, one reused Msg.
	decode := func(m *proto.Msg) func() {
		frame, err := proto.AppendFrame(nil, m)
		if err != nil {
			panic(err)
		}
		const frames = 256
		stream := bytes.Repeat(frame, frames)
		src := bytes.NewReader(stream)
		rd := proto.NewReader(src)
		var into proto.Msg
		left := frames
		return func() {
			if left == 0 {
				src.Reset(stream)
				left = frames
			}
			left--
			if err := rd.ReadMsgInto(&into); err != nil {
				panic(err)
			}
		}
	}
	decGet := ns("proto.decode_get_ns", decode(get))
	decResp128, _ := timeOp(budget, decode(resp128)) // only an input to the cost-model comparison
	decResp1k := ns("proto.decode_resp1k_ns", decode(resp1k))
	ns("proto.decode_mget16_ns", decode(mget16))
	{
		steps := []func(){encode(get), decode(get), encode(resp128), decode(resp128)}
		_, allocs := timeOp(budget, func() {
			for _, step := range steps {
				step()
			}
		})
		res.set("proto.roundtrip_allocs", allocs)
	}
	frames, flushes, wqNs := writeQueueLoop(budget)
	res.set("proto.wq_frames_per_flush", ratio(frames, flushes))
	res.set("proto.wq_ns_per_frame", wqNs)

	// kv: the cache's resident set and the store's authority map.
	now := time.Now()
	resident := kv.NewCache(0)
	for i, k := range keys {
		resident.Put(k, kv.Entry{Value: val128, Version: uint64(i + 1)})
	}
	ns("kv.cache_get_hit_ns", func() {
		e, _, _ := resident.Get(key(), now)
		sink += len(e.Value)
	})
	cachePut := ns("kv.cache_put_ns", func() { resident.Put(key(), kv.Entry{Value: val128, Version: 1 << 40}) })
	bounded, universe := kv.NewCache(10000), layerKeys(200000)
	un := 0
	ns("kv.cache_put_evict_ns", func() {
		un++
		bounded.Put(universe[un%len(universe)], kv.Entry{Value: val128, Version: 1})
	})
	t, _ := timeOp(budget, func() {
		resident.GetBatch(keys16, now, func(_ int, e kv.Entry, _, _ bool) { sink += len(e.Value) })
	})
	res.set("kv.cache_getbatch16_ns_per_key", t/batchKeys)
	cacheInvalidate, _ := timeOp(budget, func() { resident.Invalidate(key()) })
	cacheUpdate, _ := timeOp(budget, func() { resident.Update(key(), val128, 1<<41) })

	auth := kv.NewAuthority()
	for _, k := range keys {
		auth.Put(k, val128, now)
	}
	ns("kv.auth_put_ns", func() { sink += int(auth.Put(key(), val128, now)) })
	authGetView := ns("kv.auth_getview_ns", func() {
		v, _, _ := auth.GetView(key())
		sink += len(v)
	})
	vals16, vers16 := make([][]byte, batchKeys), make([]uint64, batchKeys)
	for i := range vals16 {
		vals16[i] = val128
	}
	t, _ = timeOp(budget, func() { auth.PutBatch(keys16, vals16, vers16, now) })
	res.set("kv.auth_putbatch16_ns_per_key", t/batchKeys)
	res.set("kv.auth_put_par2_ns", parallelPuts(auth, keys, val128, budget))

	// sketch and core: the policy engine's bookkeeping per request.
	tracker := sketch.MustTopK(1024, 16384, 4) // the engine's default geometry
	ns("sketch.hash_ns", func() { sink += int(sketch.Hash(key())) })
	h := uint64(0)
	ns("sketch.observe_read_ns", func() { h++; tracker.ObserveRead(h % 10000) })
	ns("sketch.observe_write_ns", func() { h++; tracker.ObserveWrite(h % 10000) })
	ns("sketch.ew_ns", func() { h++; sink += int(tracker.EW(h % 10000)) })
	engine := core.NewEngine(core.Config{})
	ns("core.observe_write_ns", func() { engine.ObserveWrite(key()) })
	res.set("core.flush_ns_per_dirty_key", engineFlushLoop(keys[:1000], budget))

	// ring: shard lookup, paid per key by LB, cache and sharded client.
	rg, err := ring.New([]string{"10.0.0.1:7001", "10.0.0.2:7001"}, 0)
	if err != nil {
		return err
	}
	ns("ring.owner_ns", func() { sink += rg.Owner(key()) })
	ns("ring.replicas2_ns", func() { sink += len(rg.Replicas(key(), 2)) })

	// Cost-model calibration: compose the measured primitives into the
	// paper's c_m, c_i, c_u (Table 1) and compare their ratios with the
	// ones internal/costmodel predicts for this machine; the policy only
	// ever uses the ratios.
	encResp, decResp := encResp128, decResp128
	if valSize > 128 {
		encResp, decResp = encResp1k, decResp1k
	}
	push := func(op proto.BatchOp) float64 {
		m := &proto.Msg{Type: proto.MsgBatch, Epoch: 1, Ops: []proto.BatchOp{op}}
		e, _ := timeOp(budget, encode(m))
		d, _ := timeOp(budget, decode(m))
		return e + d
	}
	cm := encGet + decGet + authGetView + encResp + decResp + cachePut
	ci := push(proto.BatchOp{Kind: proto.BatchInvalidate, Key: keys[0]}) + cacheInvalidate
	cu := push(proto.BatchOp{Kind: proto.BatchUpdate, Key: keys[0], Value: newValue(1, valSize), Version: 9}) + cacheUpdate
	pred := costmodel.MeasuredPrimitives(0).ForCPU(len(keys[0]), valSize)
	res.set("costmodel.cu_over_ci_err", math.Abs((pred.Cu/pred.Ci)/(cu/ci)-1))
	res.set("costmodel.cm_over_ci_err", math.Abs((pred.Cm/pred.Ci)/(cm/ci)-1))
	return nil
}

// writeQueueLoop drives proto.WriteQueueFlushed with genWorkers
// producers into io.Discard: how many frames one flush coalesces and
// what a frame costs on the response-writer path every server shares.
func writeQueueLoop(budget time.Duration) (frames, flushes, nsPerFrame float64) {
	out := make(chan proto.Outgoing, genWorkers) // one slot per producer, like a connection's response queue under load
	var nFrames, nFlushes atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		proto.WriteQueueFlushed(io.Discard, out, nil, func(n int) {
			nFrames.Add(int64(n))
			nFlushes.Add(1)
		})
	}()
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	val := newValue(1, 128)
	start := time.Now()
	for g := 0; g < genWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				m := proto.GetMsg()
				m.Type, m.Value, m.Version = proto.MsgGetResp, val, 9
				out <- proto.Outgoing{Msg: m, Pooled: true}
			}
		}()
	}
	time.Sleep(budget)
	stop.Store(true)
	wg.Wait()
	close(out)
	<-done
	elapsed := time.Since(start)
	f := float64(nFrames.Load())
	return f, float64(nFlushes.Load()), float64(elapsed) / f
}

// parallelPuts times Authority.Put from two goroutines at once (the
// box's core count): wall time per write when stripes are contended.
func parallelPuts(auth *kv.Authority, keys []string, val []byte, budget time.Duration) float64 {
	var (
		wg    sync.WaitGroup
		total atomic.Int64
	)
	now := time.Now()
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for time.Since(start) < budget {
				for i := 0; i < 64; i++ {
					n++
					auth.Put(keys[(n*2+g)%len(keys)], val, now)
				}
			}
			total.Add(int64(n))
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(total.Load())
}

// engineFlushLoop times core.Engine.Flush alone, over a dirty set
// rebuilt (untimed) before each flush.
func engineFlushLoop(dirty []string, budget time.Duration) float64 {
	engine := core.NewEngine(core.Config{})
	var (
		flushing time.Duration
		n        int
	)
	for start := time.Now(); time.Since(start) < budget; {
		for _, k := range dirty {
			engine.ObserveWrite(k)
		}
		t := time.Now()
		sink += len(engine.Flush())
		flushing += time.Since(t)
		n += len(dirty)
	}
	return float64(flushing) / float64(n)
}

// serverMetrics times the layers that need a live server: a bare store
// on loopback for the client transport, and the booted topology for the
// flusher, the cache's serve path and what the LB hop adds.
func serverMetrics(res *result, tp *topology, budget time.Duration) error {
	quiet := log.New(io.Discard, "", 0)
	stores := make([]*freshcache.StoreServer, 2)
	addrs := make([]string, 2)
	for i := range stores {
		ln, err := listen()
		if err != nil {
			return err
		}
		stores[i] = freshcache.NewStoreServer(freshcache.StoreConfig{T: T, Logger: quiet})
		go stores[i].Serve(ln) //nolint:errcheck // returns when closed
		defer stores[i].Close()
		addrs[i] = ln.Addr().String()
	}
	keys := layerKeys(1024)
	val := newValue(1, 128)
	sh, err := freshcache.NewShardedClient(addrs, 0, freshcache.ClientOptions{})
	if err != nil {
		return err
	}
	defer sh.Close()
	for _, r := range sh.MPut(keys, repeat(val, len(keys))) {
		if r.Err != nil {
			return fmt.Errorf("layer store preload: %w", r.Err)
		}
	}
	own := keys[:0:0] // the keys store 0 owns, so a bare client can ask it directly
	for _, k := range keys {
		if sh.Owner(k) == 0 {
			own = append(own, k)
		}
	}
	c := freshcache.NewClient(addrs[0], freshcache.ClientOptions{})
	defer c.Close()
	var firstErr error
	n := 0
	getOwn := func() {
		n++
		v, _, err := c.Get(own[n%len(own)])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		sink += len(v)
	}
	rtt, allocs := timeOp(budget, getOwn)
	res.set("client.store_rtt_us", rtt/1e3)
	res.set("client.allocs_per_get", allocs) // process-wide: client and store halves
	res.set("client.store_pipelined_ops_s", pipelined(c, own, budget))
	t, _ := timeOp(budget, func() {
		n++
		lo := n % (len(keys) - batchKeys)
		for _, r := range sh.MGet(keys[lo : lo+batchKeys]) {
			if r.Err != nil && firstErr == nil {
				firstErr = r.Err
			}
		}
	})
	res.set("client.sharded_mget16_us", t/1e3)

	// store.flush_us_per_key: dirty 1000 keys through the LB, then time
	// one synchronous flush per store (two subscribers each). The
	// store's own ticker may get there first and leave nothing to flush;
	// the median over the rounds ignores such a round.
	lbc := freshcache.NewClient(tp.lbAddr, freshcache.ClientOptions{})
	defer lbc.Close()
	var perKey []float64
	for round := 0; round < 5; round++ {
		out, err := lbc.MPut(keys[:1000], repeat(val, 1000))
		if err != nil {
			return fmt.Errorf("layer flush writes: %w", err)
		}
		for _, r := range out {
			if r.Err != nil {
				return fmt.Errorf("layer flush writes: %w", r.Err)
			}
		}
		for _, st := range tp.stores {
			dirty := st.Engine().DirtyCount()
			start := time.Now()
			st.TestFlush()
			if dirty > 0 {
				perKey = append(perKey, float64(time.Since(start))/1e3/float64(dirty))
			}
		}
	}
	res.set("store.flush_us_per_key", stats.ExactQuantile(perKey, 0.5))

	// One resident key, asked for three ways: inside the cache process,
	// over TCP straight to its cache, and through the LB.
	hot := keys[0]
	home := tp.lb.CacheRing().Owner(hot)
	direct := freshcache.NewClient(tp.cacheAddrs[home], freshcache.ClientOptions{})
	defer direct.Close()
	ca := tp.caches[home]
	inproc, _ := timeOp(budget, func() {
		v, _, err := ca.Get(hot)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		sink += len(v)
	})
	res.set("cache.inproc_get_hit_ns", inproc)
	p50 := func(c *freshcache.Client) float64 {
		var lat []float64
		for start := time.Now(); time.Since(start) < budget; {
			t := time.Now()
			v, _, err := c.Get(hot)
			lat = append(lat, float64(time.Since(t))/1e3)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			sink += len(v)
		}
		return stats.ExactQuantile(lat, 0.5)
	}
	directUs := p50(direct)
	res.set("cache.direct_get_hit_us", directUs)
	res.set("lb.added_us_p50", p50(lbc)-directUs)
	if firstErr != nil {
		return fmt.Errorf("layer server loops: %w", firstErr)
	}
	return nil
}

func repeat(v []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// pipelined keeps genWorkers GETs in flight on one connection and
// returns completed operations per second.
func pipelined(c *freshcache.Client, keys []string, budget time.Duration) float64 {
	var (
		wg    sync.WaitGroup
		total atomic.Int64
	)
	start := time.Now()
	for g := 0; g < genWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for time.Since(start) < budget {
				if _, _, err := c.Get(keys[(n+g)%len(keys)]); err == nil {
					n++
				}
			}
			total.Add(int64(n))
		}()
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}
