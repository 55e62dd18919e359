// Package cache implements the cache node of Figures 1 and 4: a
// capacity-bounded, LRU-evicting, cache-aside cache that
//
//   - serves GETs from its resident set, filling misses from the
//     authoritative store shard that owns the key — one store round trip
//     per key however many reads miss on it meanwhile, and no goroutine
//     per miss: a GET parks on its key's flight and is answered by the
//     fill's completion, on the store connection's reader (see flight);
//   - forwards PUTs and MPUTs to the owning store shards (writes bypass
//     the cache), the same way: started from the read loop, answered from
//     the store connection's reader that brings the last shard's answer in
//     (see forwarded);
//   - subscribes to every store shard's batched invalidate/update pushes
//     and applies them, detecting lost epochs per shard and
//     resynchronizing only that shard's keys;
//   - reports its read counts back to the owning shards once per
//     staleness bound so each store-side policy engine sees the full
//     request stream for the keys it owns.
//
// The authoritative keyspace may be partitioned across N store servers
// by a consistent-hash ring (internal/ring); the cache runs one epoch
// stream, one disconnect-deadline fallback, and one read-report slice
// per shard. Bounded staleness is preserved per shard across failures:
// while shard i's subscription is down, every resident entry owned by i
// carries a hard deadline of disconnect-time + T (serve until then, miss
// afterwards), and an epoch gap on reconnect conservatively invalidates
// only the resident keys that shard owns — keys owned by healthy shards
// keep their live push freshness throughout.
package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/cluster"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/sketch"
	"freshcache/internal/stats"
)

// Config configures a cache node.
type Config struct {
	// StoreAddr is the backing store's address for a single-store
	// deployment. Exactly one of StoreAddr and StoreAddrs must be set.
	StoreAddr string
	// StoreAddrs are the authority shards of a sharded deployment; keys
	// route to shards by consistent hashing over this list.
	StoreAddrs []string
	// ClusterAddr, when set, bootstraps the store ring from the cluster
	// coordinator (a comma-separated group under coordinator HA — the
	// watcher rotates past dead members) instead of
	// StoreAddr/StoreAddrs, and
	// watches it for ring-epoch changes: on a publish the cache swaps
	// rings atomically, re-scopes its per-shard subscriptions, and
	// stamps every resident entry whose ownership moved with a hard
	// deadline of publish-time + T — the bounded-staleness bridge
	// across the handoff.
	ClusterAddr string
	// WatchInterval paces the coordinator poll in cluster mode;
	// defaults to T/4 clamped to [20ms, 500ms].
	WatchInterval time.Duration
	// VirtualNodes sets the ring points per store shard; <= 0 uses
	// ring.DefaultVirtualNodes.
	VirtualNodes int
	// Capacity bounds the resident set in objects; 0 means unbounded.
	Capacity int
	// T is the staleness bound, used for the disconnect fallback
	// deadline and the read-report cadence. Defaults to 1s.
	T time.Duration
	// Name identifies this cache in its subscriptions.
	Name string
	// RetryInterval paces subscription reconnects; defaults to T/2
	// capped to [10ms, 1s].
	RetryInterval time.Duration
	// SlowTraceThreshold, when positive, makes traced requests that take
	// at least this long emit a one-line span log. Zero disables the
	// slow log (traces still propagate on the wire).
	SlowTraceThreshold time.Duration
	// Logger receives diagnostics; nil uses the standard logger.
	Logger *log.Logger
}

func (c *Config) fill() error {
	if c.ClusterAddr == "" {
		addrs, err := client.ResolveStoreAddrs(c.StoreAddr, c.StoreAddrs)
		if err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		c.StoreAddrs = addrs
	} else if c.StoreAddr != "" || len(c.StoreAddrs) > 0 {
		return errors.New("cache: set a cluster coordinator or store addresses, not both")
	}
	if c.T <= 0 {
		c.T = time.Second
	}
	if c.WatchInterval <= 0 {
		c.WatchInterval = c.T / 4
		if c.WatchInterval < 20*time.Millisecond {
			c.WatchInterval = 20 * time.Millisecond
		}
		if c.WatchInterval > 500*time.Millisecond {
			c.WatchInterval = 500 * time.Millisecond
		}
	}
	if c.Name == "" {
		c.Name = "cache"
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = c.T / 2
		if c.RetryInterval < 10*time.Millisecond {
			c.RetryInterval = 10 * time.Millisecond
		}
		if c.RetryInterval > time.Second {
			c.RetryInterval = time.Second
		}
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return nil
}

// Counters is the cache's observable state, aggregated across shards.
type Counters struct {
	Gets, Hits, StaleMisses, ColdMisses stats.Counter
	Puts                                stats.Counter
	InvalidatesApplied, UpdatesApplied  stats.Counter
	UpdatesIgnored                      stats.Counter // pushed for non-resident keys
	BatchesApplied, EpochGaps           stats.Counter
	Resyncs, Disconnects                stats.Counter
	KeysResynced, KeysDeadlined         stats.Counter // scoped-invalidation touch counts
	ReadReportsSent                     stats.Counter
	MalformedFrames                     stats.Counter
	RingSwaps                           stats.Counter // cluster ring epochs applied
	// DeadlineExpired counts reads that found a resident entry past its
	// hard freshness deadline — the bounded-staleness guarantee turned a
	// would-be hit into a miss. A rising rate means push channels (or
	// ring handoffs) are cutting entries off before refetch.
	DeadlineExpired stats.Counter
	// NearMisses counts fresh serves within 10% of T of the entry's hard
	// deadline: the early-warning margin before DeadlineExpired moves.
	NearMisses stats.Counter
	// FillsDeduped counts miss fills that coalesced onto an already
	// in-flight fill for the same key (single-flight), each one a store
	// round trip not taken.
	FillsDeduped stats.Counter
	// MGetKeys/MPutKeys count the keys carried by multi-key requests
	// (batch.go).
	MGetKeys, MPutKeys stats.Counter
}

// shardSub is the per-authority-shard subscription state, owned by that
// shard's subscription goroutine.
type shardSub struct {
	addr string
	// owned scopes invalidation fallbacks to this shard's keys; nil for
	// a single static store (scope: everything). Under dynamic
	// membership the predicate reads the cache's current ring, so a
	// shard's scope shrinks the moment a swap moves keys away from it.
	owned func(key string) bool
	// cancel stops the subscription loop when the shard leaves the
	// ring.
	cancel context.CancelFunc

	lastEpoch      uint64
	subscribedOnce bool
	identity       string // ShardID echoed by the store at this address
}

// Server is a live cache node.
type Server struct {
	cfg    Config
	kv     *kv.Cache
	stores *client.Sharded
	c      Counters

	reg      *stats.Registry
	spanName string
	// servedAge samples the age of every fresh hit as age/T permille
	// (see the store's ageRatioScale); fillRTT samples miss-fill round
	// trips to the authority in nanoseconds.
	servedAge stats.Histogram
	fillRTT   stats.Histogram
	// batchSize is the keys-per-request distribution of multi-key
	// operations (MGET/MPUT).
	batchSize stats.Histogram

	// subMu guards the live subscription set; subscriptions start and
	// stop as the store ring gains and loses members.
	subMu    sync.Mutex
	subs     map[string]*shardSub
	serveCtx context.Context

	// reads accumulates the per-key read counts between reports.
	reads [readStripes]readStripe

	// fillMu guards the single-flight fill table. One flight per key
	// serves two jobs at once. First, coalescing: every concurrent miss
	// for a key — single Gets and batch members alike — joins the one
	// in-flight store round trip instead of issuing its own. Second, the
	// fill/invalidate race: a batched invalidate (or a resync) that lands
	// while a fill is in flight refers to a write the fill's response may
	// predate. Without tracking, the fill would install that pre-write
	// value as fresh — and because the store-side engine then believes
	// the cache copy is already invalid, it deduplicates every later
	// invalidate away, leaving the entry stale forever. Flights voided
	// here are installed stale instead, so the next read refetches.
	fillMu sync.Mutex
	fills  map[string]*flight

	mu     sync.Mutex
	ln     net.Listener
	watch  *cluster.Watcher // nil outside cluster mode
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a cache node. In cluster mode the store ring is fetched
// from the coordinator (which must be reachable within a few seconds).
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	var bootstrap client.RingInfo
	if cfg.ClusterAddr != "" {
		ri, err := cluster.FetchRing(cfg.ClusterAddr, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		bootstrap = ri
		cfg.StoreAddrs = ri.Nodes
		cfg.VirtualNodes = ri.VirtualNodes
	}
	stores, err := client.NewSharded(cfg.StoreAddrs, cfg.VirtualNodes, client.Options{})
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	if bootstrap.Epoch > 0 {
		// Record the bootstrap epoch so the watcher's first report of
		// the same ring is a no-op.
		if err := stores.SwapRing(bootstrap.Epoch, bootstrap.Nodes, bootstrap.VirtualNodes); err != nil {
			stores.Close()
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		kv:       kv.NewCache(cfg.Capacity),
		stores:   stores,
		spanName: "cache:" + cfg.Name,
		subs:     make(map[string]*shardSub),
		fills:    make(map[string]*flight),
	}
	for i := range s.reads {
		s.reads[i].counts = make(map[string]uint32)
	}
	s.reg = s.buildRegistry()
	if cfg.ClusterAddr != "" {
		// On-demand failover: a fill or forwarded write whose owner
		// just crashed refreshes the ring straight from the coordinator
		// and retries once against the promoted owner, instead of
		// erroring until the watcher's next successful poll. The swap
		// runs through the same bookkeeping as the watcher's (deadline
		// stamping, subscription re-scoping), so bounded staleness
		// holds regardless of which path observes the epoch first.
		stores.SetRefresher(func() (client.RingInfo, bool) {
			ri, err := cluster.FetchRing(cfg.ClusterAddr, time.Second)
			if err != nil {
				return client.RingInfo{}, false
			}
			s.swapRing(ri)
			return ri, true
		})
	}
	return s, nil
}

// newShardSub builds the subscription state for one store address.
func (s *Server) newShardSub(addr string) *shardSub {
	sub := &shardSub{addr: addr}
	if s.cfg.ClusterAddr != "" || len(s.cfg.StoreAddrs) > 1 {
		// Dynamic scope: evaluate ownership against the ring of the
		// moment, so resync/deadline fallbacks always touch exactly
		// the keys this shard currently owns.
		sub.owned = func(key string) bool {
			return s.stores.Ring().OwnerAddr(key) == addr
		}
	}
	return sub
}

// KV exposes the resident set for tests and tooling.
func (s *Server) KV() *kv.Cache { return s.kv }

// Ring exposes the store-shard routing ring for tests and tooling.
func (s *Server) Ring() *ring.Ring { return s.stores.Ring() }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cache: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts client connections on ln until Close, running one
// subscription loop per store shard, the read-report loop, and (in
// cluster mode) the ring watcher in the background.
func (s *Server) Serve(ln net.Listener) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.ln = ln
	s.cancel = cancel
	s.mu.Unlock()

	s.subMu.Lock()
	s.serveCtx = ctx
	for _, addr := range s.stores.Ring().Nodes() {
		s.startSubLocked(addr)
	}
	s.subMu.Unlock()

	s.wg.Add(1)
	go s.reportLoop(ctx)
	if s.cfg.ClusterAddr != "" {
		w := cluster.NewWatcher(s.cfg.ClusterAddr, s.cfg.WatchInterval, s.stores.Epoch(), s.swapRing)
		w.SetLogger(s.cfg.Logger)
		s.mu.Lock()
		s.watch = w
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx)
		}()
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			cancel()
			return fmt.Errorf("cache: accept: %w", err)
		}
		s.wg.Add(1)
		go s.handleConn(ctx, conn)
	}
}

// startSubLocked spawns the subscription loop for one store address;
// caller holds subMu and serveCtx is set.
func (s *Server) startSubLocked(addr string) {
	sub := s.newShardSub(addr)
	ctx, cancel := context.WithCancel(s.serveCtx)
	sub.cancel = cancel
	s.subs[addr] = sub
	s.wg.Add(1)
	go s.subscriptionLoop(ctx, sub)
}

// swapRing applies a newly published ring epoch: swap the routing ring
// atomically, void in-flight fills for moved keys (their values may
// come from a store that just stopped being their authority), stamp
// every resident entry whose ownership moved with publish-time + T —
// after that deadline the entry is a miss and refetches from the new
// owner — and re-scope the per-shard subscription set. Runs on the
// watcher goroutine, so swaps are serialized.
func (s *Server) swapRing(ri client.RingInfo) {
	oldRing := s.stores.Ring()
	if err := s.stores.SwapRing(ri.Epoch, ri.Nodes, ri.VirtualNodes); err != nil {
		s.cfg.Logger.Printf("cache %s: swapping to ring epoch %d: %v", s.cfg.Name, ri.Epoch, err)
		return
	}
	newRing := s.stores.Ring()
	if newRing == oldRing {
		return // stale or duplicate publish
	}
	moved := ring.Moved(oldRing, newRing)
	s.voidOwnedFills(moved)
	deadline := ri.PublishedAt.Add(s.cfg.T)
	if time.Until(deadline) < 0 {
		// A very late swap (watcher outage): the publish-anchored
		// deadline is already past, so fall back to now + T — the
		// entries were provably fresh more recently than the publish.
		deadline = time.Now().Add(s.cfg.T)
	}
	n := s.kv.ExpireOwnedBy(deadline, moved)
	s.c.KeysDeadlined.Add(uint64(n))
	s.c.RingSwaps.Inc()

	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.serveCtx == nil {
		// Swapped before Serve (a refresher fired on an embedded or
		// still-starting node): Serve reads the swapped ring when it
		// starts the subscription loops.
		return
	}
	current := make(map[string]struct{}, newRing.Len())
	for _, addr := range newRing.Nodes() {
		current[addr] = struct{}{}
		if _, ok := s.subs[addr]; !ok {
			s.startSubLocked(addr)
		}
	}
	for addr, sub := range s.subs {
		if _, ok := current[addr]; !ok {
			sub.cancel()
			delete(s.subs, addr)
		}
	}
	s.cfg.Logger.Printf("cache %s: ring epoch %d: %d stores, %d resident keys deadlined",
		s.cfg.Name, ri.Epoch, newRing.Len(), n)
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the node.
func (s *Server) Close() error {
	s.mu.Lock()
	ln, cancel := s.ln, s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.stores.Close()
	s.wg.Wait()
	return err
}

// Get serves one read with cache-aside semantics. It is exported so the
// node can be embedded in-process (the examples do this) as well as
// served over TCP. A miss blocks the caller — and only the caller — on
// its flight's channel.
func (s *Server) Get(key string) ([]byte, uint64, error) {
	e, found, fresh := s.lookup(key, time.Now())
	if fresh {
		return e.Value, e.Version, nil
	}
	s.fillMu.Lock()
	f, lead := s.joinLocked(key, found)
	done := f.wait()
	s.fillMu.Unlock()
	if lead {
		f.lead(nil)
	}
	<-done
	return f.value, f.version, f.err
}

// lookup is the part of a read that never blocks: one resident-set
// probe plus all of the read's accounting (gets, read report, and the
// hit / stale-miss / cold-miss classification), so whoever carries a
// miss on — in place or on another goroutine — counts nothing twice.
// The entry's value is a borrowed view: entries are immutable once
// installed, so it stays a stable snapshot through the response encode.
func (s *Server) lookup(key string, now time.Time) (e kv.Entry, found, fresh bool) {
	e, found, fresh = s.kv.Get(key, now)
	s.c.Gets.Inc()
	s.classify(key, &e, found, fresh, now)
	return e, found, fresh
}

// classify does one key's read accounting for a probe result.
func (s *Server) classify(key string, e *kv.Entry, found, fresh bool, now time.Time) {
	s.noteRead(key)
	switch {
	case fresh:
		s.c.Hits.Inc()
		s.observeFreshServe(e, now)
	case found:
		s.c.StaleMisses.Inc()
		if !e.Stale && !e.ExpireAt.IsZero() && !now.Before(e.ExpireAt) {
			// Not invalidated — the hard deadline alone cut it off.
			s.c.DeadlineExpired.Inc()
		}
	default:
		s.c.ColdMisses.Inc()
	}
}

// flight is one in-flight miss fill, and the client.Completion of the
// store round trip when a single-key miss leads it. Whoever finds no
// flight for its key under fillMu leads: a GET in a connection's read loop
// (or the embedded Get) starts FillAsync and goes back to reading; a batch
// (fillBatch) fills its led keys in one blocking MFILL on its own
// goroutine. Every other miss for the key joins: a GET parks a record the
// settling goroutine answers, a blocking joiner takes the flight's channel.
//
// Ownership: a flight comes from flightPool and goes back to it in settle
// — the exactly-once rule of client.Completion is what makes that safe —
// unless a blocking joiner took its channel, in which case the joiners
// still read the result fields and the flight is left to the collector.
// found, parked, done and voided are written only under fillMu while the
// flight is in the table; the result fields exactly once, by the leader,
// before it settles.
type flight struct {
	s   *Server
	key string
	// tr, start and owner belong to a leader that started FillAsync: its
	// span gets the store's hop, fillRTT its round trip, and a failover
	// retries only if the ring no longer routes the key to owner.
	tr    *proto.SpanRec
	start time.Time
	owner *client.Client

	found  bool // some joiner probed a resident (stale) copy
	voided bool
	parked []parkedGet
	done   chan struct{} // made by the first blocking joiner

	value   []byte
	version uint64
	err     error
}

// parkedGet is a GET waiting on a flight: where its answer goes.
type parkedGet struct {
	cs  *connState
	seq uint64
	tr  *proto.SpanRec
}

var flightPool = sync.Pool{New: func() any { return new(flight) }}

// joinLocked enters one miss for key into the single-flight table: it
// returns the key's flight and whether the caller now leads it (and owes
// it a fill and a settle). Caller holds fillMu.
func (s *Server) joinLocked(key string, found bool) (f *flight, lead bool) {
	f = s.fills[key]
	if lead = f == nil; lead {
		f = flightPool.Get().(*flight)
		f.s, f.key = s, key
		s.fills[key] = f
	} else {
		s.c.FillsDeduped.Inc()
	}
	f.found = f.found || found
	return f, lead
}

// wait returns the channel closed when f settles, for a joiner with a
// goroutine of its own to block. Caller holds fillMu.
func (f *flight) wait() chan struct{} {
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// parkGet is the rest of a GET that lookup classified a miss, still on
// the connection's read loop: join or lead the key's flight and return.
// The answer is sent by whoever settles the flight.
func (s *Server) parkGet(cs *connState, m *proto.Msg, tr *proto.SpanRec, found bool) {
	cs.Acquire()
	s.fillMu.Lock()
	f, lead := s.joinLocked(m.Key, found)
	f.parked = append(f.parked, parkedGet{cs: cs, seq: m.Seq, tr: tr})
	s.fillMu.Unlock()
	if lead {
		f.lead(tr)
	}
}

// lead starts the store round trip of a flight the caller just created.
// A traced fill propagates the trace ID to the authority; the store's span
// is merged into tr, so the client's hop tree shows where the miss spent
// its time.
func (f *flight) lead(tr *proto.SpanRec) {
	// The owner is on record before the fill starts: Complete may run
	// before FillAsync returns.
	f.tr, f.start, f.owner = tr, time.Now(), f.s.stores.For(f.key)
	f.owner.FillAsync(f.key, tr.ID(), f)
}

// Complete runs on the store connection's reader, which serves every fill
// on that connection: it must not block. The lent value is copied once —
// the copy becomes the resident entry and every waiter's answer. A
// transport failure may mean the owner is down: that flight alone goes to
// a goroutine for the blocking ring refresh and retry (failover).
func (f *flight) Complete(resp *proto.Msg, err error) {
	switch {
	case err == nil:
		f.tr.Add(resp.Trace)
		var value []byte
		value, f.version, f.err = client.DecodeGet(resp, f.key)
		f.value = bytes.Clone(value)
	case errors.Is(err, client.ErrClosed):
		f.err = err
	default:
		go f.failover(err)
		return
	}
	f.landed()
}

func (f *flight) failover(err error) {
	var ft *proto.Trace
	f.value, f.version, ft, f.err = f.s.stores.FillRetry(f.owner, f.key, f.tr.ID(), err)
	f.tr.Add(ft)
	f.landed()
}

// landed ends a fill the flight led itself.
func (f *flight) landed() {
	f.s.fillRTT.Observe(float64(time.Since(f.start)))
	f.s.settle(f)
}

// settle installs the result its leader left on f, retires the flight and
// answers its waiters. A flight voided by an invalidate or resync installs
// stale: the value may predate the write the invalidate announced. Serving
// it once is within the bound (the write is younger than T), but the copy
// must not stay fresh — the next read refetches.
func (s *Server) settle(f *flight) {
	if f.err == nil {
		s.kv.Put(f.key, kv.Entry{Value: f.value, Version: f.version})
	}
	s.fillMu.Lock()
	voided := f.voided
	delete(s.fills, f.key)
	s.fillMu.Unlock()
	// Out of the table: nobody joins or voids f any more.
	switch {
	case f.err == nil && voided:
		s.kv.Invalidate(f.key)
	case f.found && errors.Is(f.err, client.ErrNotFound):
		s.kv.Delete(f.key) // deleted upstream; drop our stale copy
	}
	for _, p := range f.parked {
		p.cs.answer(p.tr, getResp(p.seq, f.value, f.version, f.err))
	}
	if f.done != nil {
		close(f.done) // its blocking joiners read the result: not recycled
		return
	}
	clear(f.parked)
	*f = flight{parked: f.parked[:0]}
	flightPool.Put(f)
}

// observeFreshServe records freshness telemetry for a fresh hit: the
// served copy's age relative to T, and whether the serve landed inside
// the near-miss margin (within 10% of T of a hard deadline).
func (s *Server) observeFreshServe(e *kv.Entry, now time.Time) {
	if !e.FreshAt.IsZero() {
		if age := now.Sub(e.FreshAt); age > 0 {
			s.servedAge.Observe(float64(age) / float64(s.cfg.T) * stats.AgeRatioScale)
		} else {
			s.servedAge.Observe(0)
		}
	}
	if !e.ExpireAt.IsZero() && e.ExpireAt.Sub(now) <= s.cfg.T/10 {
		s.c.NearMisses.Inc()
	}
}

// voidFill marks key's in-flight fill (if any) as overtaken by an
// invalidation.
func (s *Server) voidFill(key string) {
	s.fillMu.Lock()
	if f := s.fills[key]; f != nil {
		f.voided = true
	}
	s.fillMu.Unlock()
}

// voidOwnedFills voids every in-flight fill owned by a resyncing shard
// (owned nil means all).
func (s *Server) voidOwnedFills(owned func(key string) bool) {
	s.fillMu.Lock()
	for key, f := range s.fills {
		if owned == nil || owned(key) {
			f.voided = true
		}
	}
	s.fillMu.Unlock()
}

// Put forwards a write to the store shard owning key (writes bypass the
// cache).
func (s *Server) Put(key string, value []byte) (uint64, error) {
	s.c.Puts.Inc()
	return s.stores.Put(key, value)
}

// forwarded is one client PUT or MPUT in flight to the owning stores
// (writes bypass the cache): started from the connection's read loop with
// the reader's own values, split by owner, gathered and — a leg whose store
// died — failed over by the sharded client's record, which it embeds, and
// answered from the store connection's reader that brings the last leg in.
// Pooled; Finish runs exactly once, which makes recycling it there safe.
type forwarded struct {
	client.Scatter
	cs  *connState
	seq uint64
	tr  *proto.SpanRec
	put bool // a PUT (one op, answered MsgPutResp), not an MPUT
}

var forwardedPool = sync.Pool{New: func() any { return new(forwarded) }}

// forward starts a PUT or MPUT towards the stores from the read loop and
// returns nil — (*forwarded).Finish answers — or, for an MPUT carrying
// anything but updates, the refusal, before anything is counted or started.
func (s *Server) forward(cs *connState, m *proto.Msg, tr *proto.SpanRec) *proto.Msg {
	ops := m.Ops
	if m.Type == proto.MsgPut {
		one := [1]proto.BatchOp{{Kind: proto.BatchUpdate, Key: m.Key, Value: m.Value}}
		ops = one[:]
	} else {
		for i := range ops {
			if ops[i].Kind != proto.BatchUpdate {
				return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq,
					Err: fmt.Sprintf("cache: MPUT op %d has kind %d, want update", i, ops[i].Kind)}
			}
		}
		s.c.MPutKeys.Add(uint64(len(ops)))
		s.batchSize.Observe(float64(len(ops)))
	}
	s.c.Puts.Add(uint64(len(ops)))
	cs.Acquire()
	w := forwardedPool.Get().(*forwarded)
	w.cs, w.seq, w.tr, w.put = cs, m.Seq, tr, m.Type == proto.MsgPut
	s.stores.MPutAsync(ops, tr.ID(), w)
	return nil
}

// Finish relays the outcome: a PUT's version or error; an MPUT's key by
// key, a key whose write failed at its shard as BatchInvalidate, the rest
// with their assigned versions.
func (w *forwarded) Finish() {
	ops := w.Ops()
	w.AddTraces(w.tr)
	resp := proto.GetMsg()
	resp.Seq = w.seq
	switch {
	case !w.put:
		// A copy: the writer encodes resp after the record is recycled.
		resp.Type, resp.Ops = proto.MsgMPutResp, append(resp.Ops, ops...)
	case w.Err(0) != nil:
		resp.Type, resp.Err = proto.MsgErr, w.Err(0).Error()
	default:
		resp.Type, resp.Status, resp.Version = proto.MsgPutResp, proto.StatusOK, ops[0].Version
	}
	w.cs.answer(w.tr, resp)
	w.cs, w.tr = nil, nil
	w.Reset()
	forwardedPool.Put(w)
}

// readStripes is the number of independently locked read-count tables —
// a power of two, picked by the same key hash as the resident set's
// stripes, so hits on different keys from different connections do not
// serialise on one counter lock.
const readStripes = 64

type readStripe struct {
	mu     sync.Mutex
	counts map[string]uint32
	_      [48]byte // one stripe per cache line
}

// noteRead accumulates the per-key read counts reported to the stores.
func (s *Server) noteRead(key string) {
	st := &s.reads[sketch.Hash(key)&(readStripes-1)]
	st.mu.Lock()
	st.counts[key]++
	st.mu.Unlock()
}

// reportLoop ships accumulated read counts to the owning store shards
// once per T.
func (s *Server) reportLoop(ctx context.Context) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.T)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.flushReports()
		}
	}
}

// flushReports ships every count accumulated since the last flush,
// exactly once: each stripe's table is swapped out under its own lock, so
// a read lands either in this report or in the next.
func (s *Server) flushReports() {
	var reports []proto.ReadReport
	for i := range s.reads {
		st := &s.reads[i]
		st.mu.Lock()
		var counts map[string]uint32
		if len(st.counts) > 0 {
			counts = st.counts
			st.counts = make(map[string]uint32, len(counts))
		}
		st.mu.Unlock()
		for k, n := range counts {
			reports = append(reports, proto.ReadReport{Key: k, Count: n})
		}
	}
	if len(reports) == 0 {
		return
	}
	if err := s.stores.ReadReport(reports); err != nil {
		s.cfg.Logger.Printf("cache %s: read report failed: %v", s.cfg.Name, err)
		// Intentionally dropped rather than retried: read statistics are
		// advisory for the policy engine and stale counts are worse than
		// missing ones.
	} else {
		s.c.ReadReportsSent.Inc()
	}
}

// subscriptionLoop maintains the push channel from one store shard,
// applying batches and resynchronizing that shard's keys after failures.
func (s *Server) subscriptionLoop(ctx context.Context, sub *shardSub) {
	defer s.wg.Done()
	for ctx.Err() == nil {
		err := s.runSubscription(ctx, sub)
		if ctx.Err() != nil {
			return
		}
		s.c.Disconnects.Inc()
		if err != nil {
			s.cfg.Logger.Printf("cache %s: shard %s subscription: %v",
				s.cfg.Name, sub.addr, err)
		}
		// This shard's push channel is down: its resident data was fresh
		// at disconnect, so it may serve for at most T more. Keys owned
		// by other shards keep their live freshness.
		s.c.KeysDeadlined.Add(uint64(s.kv.ExpireOwnedBy(time.Now().Add(s.cfg.T), sub.owned)))
		select {
		case <-ctx.Done():
			return
		case <-time.After(s.cfg.RetryInterval):
		}
	}
}

func (s *Server) runSubscription(ctx context.Context, sub *shardSub) error {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", sub.addr)
	if err != nil {
		return fmt.Errorf("dialing store: %w", err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	w := proto.NewWriter(conn)
	r := proto.NewReader(conn)
	if err := w.WriteMsg(&proto.Msg{Type: proto.MsgSubscribe, Seq: 1, Key: s.cfg.Name}); err != nil {
		return fmt.Errorf("subscribing: %w", err)
	}
	resp, err := r.ReadMsg()
	if err != nil {
		return fmt.Errorf("reading subscribe response: %w", err)
	}
	if resp.Type != proto.MsgSubResp {
		return fmt.Errorf("unexpected subscribe response %v", resp.Type)
	}
	if sub.subscribedOnce && (resp.Epoch != sub.lastEpoch || resp.Key != sub.identity) {
		// Epochs advanced while we were away, or a different store now
		// answers this address: we missed batches for this shard.
		s.resync(sub)
	}
	sub.lastEpoch = resp.Epoch
	sub.identity = resp.Key
	sub.subscribedOnce = true

	// Heartbeat deadline: the store pushes every T (even empty batches),
	// so silence for several T means the channel is dead.
	idle := 3 * s.cfg.T
	if idle < time.Second {
		idle = time.Second
	}
	// One Msg for every push: applyBatch keeps nothing of it (kv.Update
	// copies the values it installs), so the next read may overwrite it.
	var m proto.Msg
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return fmt.Errorf("setting read deadline: %w", err)
		}
		if err := r.ReadMsgInto(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return errors.New("store closed the subscription")
			}
			return fmt.Errorf("reading push: %w", err)
		}
		if m.Type != proto.MsgBatch {
			s.c.MalformedFrames.Inc()
			continue
		}
		if m.Epoch != sub.lastEpoch+1 {
			s.c.EpochGaps.Inc()
			s.resync(sub)
		}
		sub.lastEpoch = m.Epoch
		s.applyBatch(&m)
	}
}

// resync conservatively invalidates the resident keys owned by the
// gapped shard after lost pushes: every read of those keys refetches
// once, restoring bounded staleness for that slice of the keyspace
// without disturbing entries the other shards keep fresh.
func (s *Server) resync(sub *shardSub) {
	s.c.Resyncs.Inc()
	s.voidOwnedFills(sub.owned)
	s.c.KeysResynced.Add(uint64(s.kv.InvalidateOwned(sub.owned)))
}

func (s *Server) applyBatch(m *proto.Msg) {
	for _, op := range m.Ops {
		switch op.Kind {
		case proto.BatchInvalidate:
			s.voidFill(op.Key)
			if s.kv.Invalidate(op.Key) {
				s.c.InvalidatesApplied.Inc()
			}
		case proto.BatchUpdate:
			// op.Value aliases the reader's buffer: Update copies it, and
			// only once it knows the copy will be installed.
			if s.kv.Update(op.Key, op.Value, op.Version) {
				s.c.UpdatesApplied.Inc()
			} else {
				// Not resident, so the update is dropped (the paper's
				// update semantics) — but an in-flight fill for the key
				// may predate this write and must not land fresh. (A
				// fill completing after an applied update is already
				// safe: the version guard rejects the older value.)
				s.voidFill(op.Key)
				s.c.UpdatesIgnored.Inc()
			}
		}
	}
	s.c.BatchesApplied.Inc()
}

// maxConnInflight bounds the requests carried on asynchronously per
// client connection; beyond it the read loop exerts backpressure.
const maxConnInflight = 256

// connState is what one client connection's read loop shares with the
// completions and goroutines answering on it: the queue to its writer,
// holding one slot (maxConnInflight) per request still to be answered off
// the read loop — parked on a flight, relayed to a store, or carried on by
// a goroutine.
type connState struct {
	s *Server
	*proto.ReplyQueue
	ops []proto.BatchOp // the read loop's scratch for an MGET's answer
}

// answer closes tr's hop span on resp and queues it as the response to a
// request acquired on cs, without ever waiting for this client: it runs
// on store connections' readers, which every client connection shares.
func (cs *connState) answer(tr *proto.SpanRec, resp *proto.Msg) {
	cs.Answer(proto.Outgoing{Msg: cs.s.finishTrace(tr, resp), Pooled: true})
}

// handleConn serves one client connection run-to-completion: the read
// loop dispatches each request in place, and whatever needs no store
// round trip — a fresh hit, an MGET of fresh hits, PING, STATS — is
// answered right there, from the reader's own request Msg, into the
// coalescing writer's queue (a burst of responses costs one flush, not
// one syscall each). A GET that misses is started there too: it parks on
// its key's flight (parkGet) and is answered from the store connection's
// reader, and so is a forwarded PUT or MPUT (forward). Only an MGET's
// misses, whose batched fill blocks on the single-flight table, go on to a
// goroutine of their own (carryOn). None of them stalls the pipelined
// requests queued behind it, so responses may overtake one another; each
// echoes its request's Seq for the client to demux.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer s.wg.Done()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// 64 frames: a pipelined burst of answers coalesces into one flush.
	cs := &connState{s: s, ReplyQueue: proto.NewReplyQueue(64, maxConnInflight)}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		proto.WriteQueue(conn, cs.Out, conn)
	}()

	// One request Msg reused across the whole connection: dispatch either
	// answers before returning or copies what the parked, relayed or
	// carried-on part keeps (values are copied, keys are interned
	// strings), so nothing aliases m once it returns.
	var m proto.Msg
	r := proto.NewReader(conn)
	for {
		if err := r.ReadMsgInto(&m); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.c.MalformedFrames.Inc()
				s.cfg.Logger.Printf("cache %s: conn %s: %v", s.cfg.Name, conn.RemoteAddr(), err)
			}
			break
		}
		tr := proto.StartSpan(&m, s.spanName)
		if resp := s.dispatch(&m, cs, tr); resp != nil {
			cs.Out <- proto.Outgoing{Msg: s.finishTrace(tr, resp), Pooled: true}
		}
	}
	cs.Close()
	<-writerDone
	conn.Close()
}

// maxScratchOps bounds the op scratch a connection keeps, so one giant MGET
// does not pin its answer's size for the connection's lifetime.
const maxScratchOps = 4096

// carryOn answers an MGET with misses asynchronously through the
// connection's writer, once its blocking remainder — the batched fill — is
// done; the lookup and its accounting the read loop has already done. The
// answer so far, ops, is the connection's scratch: it gets a copy.
func (s *Server) carryOn(cs *connState, tr *proto.SpanRec, seq uint64, ops []proto.BatchOp, misses batchMisses) {
	resp := proto.GetMsg()
	resp.Type, resp.Seq, resp.Ops = proto.MsgMGetResp, seq, append([]proto.BatchOp(nil), ops...)
	cs.Acquire()
	go func() {
		defer cs.Release()
		cs.Out <- proto.Outgoing{Msg: s.finishTrace(tr, s.mgetFill(resp, misses, tr)), Pooled: true}
	}()
}

// finishTrace closes a traced request's hop span on its response and
// emits the slow-request span log when the hop exceeded the configured
// threshold. Both are no-ops for untraced requests (nil recorder).
func (s *Server) finishTrace(tr *proto.SpanRec, resp *proto.Msg) *proto.Msg {
	resp = tr.Finish(resp)
	if th := s.cfg.SlowTraceThreshold; th > 0 && resp != nil && resp.Trace != nil && tr.Elapsed() >= th {
		s.cfg.Logger.Printf("cache: %s", proto.TraceLogLine(resp.Trace, s.spanName, tr.Elapsed()))
	}
	return resp
}

// getResp builds a GET's response from its outcome.
func getResp(seq uint64, value []byte, version uint64, err error) *proto.Msg {
	resp := proto.GetMsg()
	resp.Seq = seq
	switch {
	case err == nil:
		resp.Type, resp.Status, resp.Version, resp.Value = proto.MsgGetResp, proto.StatusOK, version, value
	case errors.Is(err, client.ErrNotFound):
		resp.Type, resp.Status = proto.MsgGetResp, proto.StatusNotFound
	default:
		resp.Type, resp.Err = proto.MsgErr, err.Error()
	}
	return resp
}

// dispatch runs on the connection's read loop. It returns the response,
// or nil after queuing an MGET's itself, parking the request on a flight,
// relaying it to a store or handing its blocking remainder to carryOn.
// m is the reader's: valid only until dispatch returns.
func (s *Server) dispatch(m *proto.Msg, cs *connState, tr *proto.SpanRec) *proto.Msg {
	switch m.Type {
	case proto.MsgGet:
		e, found, fresh := s.lookup(m.Key, time.Now())
		if fresh {
			return getResp(m.Seq, e.Value, e.Version, nil)
		}
		s.parkGet(cs, m, tr, found)
		return nil
	case proto.MsgPut, proto.MsgMPut:
		return s.forward(cs, m, tr)
	case proto.MsgMGet:
		s.c.MGetKeys.Add(uint64(len(m.Keys)))
		s.batchSize.Observe(float64(len(m.Keys)))
		ops, misses := s.mgetLookup(m, cs.ops[:0])
		if len(misses.keys) > 0 {
			s.carryOn(cs, tr, m.Seq, ops, misses)
		} else { // encoded before the scratch is reused
			resp := proto.Msg{Type: proto.MsgMGetResp, Seq: m.Seq, Ops: ops}
			o, _ := proto.EncodeNow(s.finishTrace(tr, &resp)) // past MaxFrame, o is the MsgErr
			cs.Out <- o
		}
		clear(ops) // the values are resident entries': keep none alive from here
		if cap(ops) <= maxScratchOps {
			cs.ops = ops
		}
		return nil
	case proto.MsgPing:
		return &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
	case proto.MsgStats:
		return &proto.Msg{Type: proto.MsgStatsResp, Seq: m.Seq, Stats: s.StatsMap()}
	default:
		return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq,
			Err: fmt.Sprintf("cache: unexpected message %v", m.Type)}
	}
}

// buildRegistry wires every cache metric — the Counters struct, the
// computed gauges the legacy stats map carried, and the freshness
// histograms — into one registry rendered by both /metrics and
// MsgStatsResp.
func (s *Server) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	counter := func(name, help, key string, c *stats.Counter) {
		r.Counter("freshcache_cache_"+name, help, key, c)
	}
	gauge := func(name, help, key string, fn func() float64) {
		r.Gauge("freshcache_cache_"+name, help, key, fn)
	}
	counter("gets_total", "Client GET requests served.", "gets", &s.c.Gets)
	counter("hits_total", "GETs served fresh from the resident set.", "hits", &s.c.Hits)
	counter("puts_total", "Client PUTs forwarded to the owning store.", "puts", &s.c.Puts)
	counter("invalidates_applied_total", "Pushed invalidates applied to resident keys.", "invalidates_applied", &s.c.InvalidatesApplied)
	counter("updates_applied_total", "Pushed updates applied to resident keys.", "updates_applied", &s.c.UpdatesApplied)
	counter("updates_ignored_total", "Pushed updates dropped for non-resident keys.", "updates_ignored", &s.c.UpdatesIgnored)
	counter("batches_applied_total", "Push batches applied.", "batches_applied", &s.c.BatchesApplied)
	counter("epoch_gaps_total", "Push epoch gaps detected (missed batches).", "epoch_gaps", &s.c.EpochGaps)
	counter("resyncs_total", "Shard-scoped resynchronizations run.", "resyncs", &s.c.Resyncs)
	counter("disconnects_total", "Store subscription disconnects.", "disconnects", &s.c.Disconnects)
	counter("keys_resynced_total", "Resident keys invalidated by resyncs.", "keys_resynced", &s.c.KeysResynced)
	counter("keys_deadlined_total", "Resident keys stamped with a hard staleness deadline.", "keys_deadlined", &s.c.KeysDeadlined)
	counter("read_reports_sent_total", "Read-report flushes delivered to the stores.", "read_reports_sent", &s.c.ReadReportsSent)
	counter("malformed_frames_total", "Frames rejected as malformed.", "malformed_frames", &s.c.MalformedFrames)
	counter("ring_swaps_total", "Cluster ring epochs applied.", "ring_swaps", &s.c.RingSwaps)
	counter("deadline_expired_total",
		"Reads that found a resident entry past its hard freshness deadline (bounded-staleness violations prevented).",
		"deadline_expired", &s.c.DeadlineExpired)
	counter("near_miss_serves_total",
		"Fresh serves within 10% of T of the entry's hard deadline.",
		"near_misses", &s.c.NearMisses)
	counter("fills_deduped_total",
		"Miss fills coalesced onto an already in-flight fill for the same key.",
		"fills_deduped", &s.c.FillsDeduped)

	// Multi-key traffic, labeled by operation so the batch mix is one
	// query: sum by (op).
	r.LabeledCounter("freshcache_cache_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mget"}, "mget_ops", &s.c.MGetKeys)
	r.LabeledCounter("freshcache_cache_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mput"}, "mput_ops", &s.c.MPutKeys)

	// Miss causes, labeled so hit ratio decomposition is one query.
	r.LabeledCounter("freshcache_cache_misses_total", "GET misses by cause.",
		[]string{"kind"}, []string{"stale"}, "stale_misses", &s.c.StaleMisses)
	r.LabeledCounter("freshcache_cache_misses_total", "GET misses by cause.",
		[]string{"kind"}, []string{"cold"}, "cold_misses", &s.c.ColdMisses)

	gauge("watcher_stalled_polls", "Consecutive failed coordinator polls.", "watcher_stalled_polls", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.watch == nil {
			return 0
		}
		return float64(s.watch.ConsecutiveFailures())
	})
	gauge("watcher_failed_polls", "Total failed coordinator polls.", "watcher_failed_polls", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.watch == nil {
			return 0
		}
		return float64(s.watch.FailedPolls())
	})
	gauge("watcher_resumes", "Coordinator poll streams resumed after failures.", "watcher_resumes", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.watch == nil {
			return 0
		}
		return float64(s.watch.Resumes())
	})
	gauge("failovers", "Owner failovers taken by the sharded store client.", "failovers", func() float64 {
		return float64(s.stores.Failovers())
	})
	gauge("ring_epoch", "Cluster ring epoch this cache routes by.", "ring_epoch", func() float64 {
		return float64(s.stores.Epoch())
	})
	gauge("stores", "Store shards in the routing ring.", "stores", func() float64 {
		return float64(s.stores.Len())
	})
	gauge("resident", "Resident entries (including stale ones).", "resident", func() float64 {
		return float64(s.kv.Len())
	})
	gauge("evictions", "LRU evictions.", "evictions", func() float64 {
		return float64(s.kv.Evictions())
	})

	r.Histogram("freshcache_cache_served_age_ratio",
		"Age of fresh hits at serve time, as a fraction of the staleness bound T.",
		stats.AgeRatioBuckets, stats.AgeRatioScale, "served_age_samples", &s.servedAge)
	r.Histogram("freshcache_cache_fill_rtt_seconds",
		"Miss-fill round-trip latency to the authority stores.",
		stats.LatencySecondsBuckets, 1e9, "", &s.fillRTT)
	r.Histogram("freshcache_cache_batch_size",
		"Keys per multi-key request (MGET/MPUT).",
		stats.BatchSizeBuckets, 1, "batch_size_samples", &s.batchSize)
	return r
}

// Metrics exposes the cache's metric registry (the /metrics source).
func (s *Server) Metrics() *stats.Registry { return s.reg }

// StatsMap snapshots the node's counters.
func (s *Server) StatsMap() map[string]uint64 { return s.reg.StatsMap() }
