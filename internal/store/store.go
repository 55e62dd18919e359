// Package store implements the backing data store of Figure 4: the
// authoritative versioned KV, the write intake, and the write-reactive
// freshness machinery — a core.Engine that buffers written keys and, within
// the staleness bound T of each write, pushes it in a batched frame of
// invalidates and updates to every subscribed cache (see flusher).
//
// The flusher is woken by writes, not by a ticker: a write the engine reports
// due is on the wire at once, and what it holds back goes out at the slice
// boundary its cooldown ends at.
//
// Delivery is epoch-numbered: every frame increments the epoch, and an
// empty one is pushed as a heartbeat when T passes without any, so a cache
// that misses a frame detects the gap from the next frame's epoch (or the
// silence) and resynchronizes. A subscriber that cannot keep up (full push
// queue) is disconnected rather than buffered without bound; it will
// reconnect and resynchronize.
package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/stats"
)

// Config configures a store server.
type Config struct {
	// ShardID names this store's slice of the keyspace in a sharded
	// deployment. It is echoed in subscription acknowledgements so a
	// cache can tell when a different store has taken over an address
	// (and must resynchronize that shard). Defaults to "store".
	ShardID string
	// T is the staleness bound: the longest the freshness flusher holds
	// a write back — a re-write inside its key's cooldown, a key nobody has
	// read; any other write it pushes at once. Defaults to 1s.
	T time.Duration
	// Engine configures the adaptive policy engine (costs, tracker,
	// SLO). The zero value uses the engine defaults.
	Engine core.Config
	// SubscriberQueue bounds the per-subscriber push queue; defaults
	// to 64 frames. While any subscriber's is over half full the flusher
	// sends frames at slice boundaries only, 16 per T: the other half is
	// 2·T of stall tolerance at any write rate.
	SubscriberQueue int
	// MaxReportCount caps one key's count in a read report (defense
	// against a misbehaving cache flooding the tracker); defaults 65536.
	MaxReportCount uint32
	// ClusterAddr, when set, starts a heartbeat loop against the
	// cluster coordinator (a comma-separated group under coordinator
	// HA; beats follow leader redirects): each beat renews this
	// store's liveness lease (the failure detector's input) and the
	// response carries the current published ring, so a store that
	// missed a release catches up from its own heartbeat.
	ClusterAddr string
	// AdvertiseAddr is this store's ring identity — the address peers
	// and the coordinator dial. Required with ClusterAddr.
	AdvertiseAddr string
	// HeartbeatInterval paces the liveness heartbeats; defaults to
	// 500ms. Keep it at a small fraction of the coordinator's lease
	// interval so one dropped beat does not cost the lease.
	HeartbeatInterval time.Duration
	// SlowTraceThreshold, when positive, makes traced requests that take
	// at least this long emit a structured one-line span log. Zero
	// disables the slow log; tracing itself is always request-driven.
	SlowTraceThreshold time.Duration
	// Logger receives connection-level diagnostics; nil uses the
	// standard logger.
	Logger *log.Logger
}

func (c *Config) fill() {
	if c.ShardID == "" {
		c.ShardID = "store"
	}
	if c.T <= 0 {
		c.T = time.Second
	}
	if c.SubscriberQueue <= 0 {
		c.SubscriberQueue = 64
	}
	if c.MaxReportCount == 0 {
		c.MaxReportCount = 1 << 16
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
}

// Counters is the store's observable state, served over MsgStats.
type Counters struct {
	Gets, Fills, Puts       stats.Counter
	ReadReports             stats.Counter
	BatchesSent, OpsSent    stats.Counter
	BatchEncodes            stats.Counter
	InvalidatesSent         stats.Counter
	UpdatesSent             stats.Counter
	PushesLeading           stats.Counter
	PushesCooldown          stats.Counter
	SubscribersDropped      stats.Counter
	MalformedFrames         stats.Counter
	ConnectionsAccepted     stats.Counter
	ConnectionsClosed       stats.Counter
	FlushesWithoutSubscribe stats.Counter
	// Cluster membership / live resharding counters (migrate.go).
	MigrationsOut, MigrationsIn stats.Counter
	KeysMigratedOut             stats.Counter
	KeysMigratedIn              stats.Counter
	ForwardedPuts               stats.Counter
	ForwardedReads              stats.Counter
	KeysReleased                stats.Counter
	// Replication / failover counters (replicate.go).
	RepWritesOut, RepWritesIn stats.Counter
	RepSyncs, RepSyncsServed  stats.Counter
	HeartbeatsSent            stats.Counter
	// Multi-key operation counters (batch.go): keys carried by MGET/MFILL
	// and MPUT requests.
	MGetKeys, MPutKeys stats.Counter
}

// Server is a live store node.
type Server struct {
	cfg      Config
	auth     *kv.Authority
	engine   *core.Engine
	c        Counters
	reg      *stats.Registry
	spanName string
	// servedAge is the per-shard served-entry age distribution as an
	// age/T ratio (stored in permille), observed on every locally served
	// GET/FILL — the paper's freshness guarantee made visible: mass near
	// or past ratio 1 means entries are being served close to (or beyond)
	// one staleness bound after their write.
	servedAge stats.Histogram
	// repRTT is the replication fan-out latency per acknowledged write
	// (nanoseconds) — the failover-lag signal: acks are withheld until
	// replicas confirm, so this is exactly the staleness a promotion
	// could add.
	repRTT stats.Histogram
	// batchSize is the keys-per-request distribution of multi-key
	// operations (MGET/MFILL/MPUT) — the amortization factor of the
	// batched hot path made visible.
	batchSize stats.Histogram
	// dwellLeading and dwellCooldown are how long a pushed key's oldest
	// unpushed write waited for its flush (nanoseconds) — the store's share
	// of write-to-visible — for keys pushed at once and for keys held first.
	dwellLeading, dwellCooldown stats.Histogram

	// flushMu serializes flushes — frames reach every subscriber in epoch
	// order — and guards their scratch and the heartbeat's slice.
	flushMu   sync.Mutex
	decisions []core.Decision
	ops       []proto.BatchOp
	pushSubs  []*subscriber
	lastBatch uint64
	// kick wakes the flusher: one slot, see kickFlusher.
	kick chan struct{}

	mu    sync.Mutex
	subs  map[*subscriber]struct{}
	epoch uint64

	// Cluster state (migrate.go): the ring view this store serves
	// under, the in-progress outbound migrations, the keys whose
	// writes were forwarded (so old-epoch subscribers still receive
	// invalidates for them), and the peer clients used to forward.
	// The data path only ever takes clMu for reading; control-plane
	// transitions (migration registration + snapshot, the forward
	// switch, ring installs) take it for writing, which also brackets
	// every local authority write under a read lock — making a
	// migration's snapshot-plus-dirty-set exhaustive: a write either
	// lands before the snapshot or is dirty-tracked, never in between.
	clMu         sync.RWMutex
	selfAddr     string
	clusterEpoch uint64
	clusterRing  *ring.Ring
	replicas     int // cluster replication factor R (<=1: no replication)
	outMigs      []*outMigration
	fwdDirty     keySet
	peerMu       sync.Mutex // guards peers
	peers        map[string]*client.Client

	// Replication state (replicate.go): pendingFreqs buffers the
	// primaries' tracker counts for replica-held keys until a promotion
	// makes them this store's to serve; repSyncing records the highest
	// ring epoch a bootstrap sync is running (or has run) against each
	// primary.
	repMu        sync.Mutex
	pendingFreqs map[string]proto.KeyFreq
	repSyncing   map[string]uint64

	// hbMisses is the heartbeat loop's current consecutive-failure
	// streak (zero while the coordinator answers), exported in stats
	// and piggybacked on the next successful beat.
	hbMisses atomic.Uint64

	ln     net.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed chan struct{}
}

type subscriber struct {
	name string
	out  chan proto.Outgoing
	conn net.Conn

	// pushMu gates pushes against the connection goroutine closing
	// out: the flusher's snapshot of the subscriber set can outlive
	// the connection, and a push after close(out) would panic.
	pushMu sync.Mutex
	gone   bool
}

// push try-sends a batch frame; it reports false when the subscriber's
// queue is full (the caller drops the subscriber) and swallows the
// frame silently once the connection is gone. A frame that does not
// make it into the queue has its resources discarded here, so callers
// push-and-forget.
func (sub *subscriber) push(o proto.Outgoing) bool {
	sub.pushMu.Lock()
	defer sub.pushMu.Unlock()
	if sub.gone {
		o.Discard()
		return true
	}
	select {
	case sub.out <- o:
		return true
	default:
		o.Discard()
		return false
	}
}

// retire marks the subscriber's queue closed-to-pushes; called by the
// owning connection goroutine immediately before close(out).
func (sub *subscriber) retire() {
	sub.pushMu.Lock()
	sub.gone = true
	sub.pushMu.Unlock()
}

// New builds a store server.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:          cfg,
		auth:         kv.NewAuthority(),
		engine:       core.NewEngine(cfg.Engine),
		spanName:     "store:" + cfg.ShardID,
		subs:         make(map[*subscriber]struct{}),
		peers:        make(map[string]*client.Client),
		pendingFreqs: make(map[string]proto.KeyFreq),
		repSyncing:   make(map[string]uint64),
		closed:       make(chan struct{}),
		kick:         make(chan struct{}, 1),
	}
	s.reg = s.buildRegistry()
	return s
}

// buildRegistry wires every store metric — the Counters struct, the
// computed gauges the legacy stats map carried, and the freshness
// histograms — into one registry rendered by both /metrics and
// MsgStatsResp.
func (s *Server) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	counter := func(name, help, key string, c *stats.Counter) {
		r.Counter("freshcache_store_"+name, help, key, c)
	}
	gauge := func(name, help, key string, fn func() float64) {
		r.Gauge("freshcache_store_"+name, help, key, fn)
	}
	counter("gets_total", "Client GET requests received.", "gets", &s.c.Gets)
	counter("fills_total", "Cache miss fills served.", "fills", &s.c.Fills)
	counter("puts_total", "Client PUT requests received.", "puts", &s.c.Puts)
	counter("read_reports_total", "Read-report frames ingested.", "read_reports", &s.c.ReadReports)
	counter("batches_sent_total", "Batch push frames delivered to subscribers.", "batches_sent", &s.c.BatchesSent)
	counter("batch_encodes_total", "Batch frames encoded (one per flush with subscribers).", "batch_encodes", &s.c.BatchEncodes)
	counter("ops_sent_total", "Batch operations delivered to subscribers.", "ops_sent", &s.c.OpsSent)
	counter("subscribers_dropped_total", "Subscribers disconnected for not keeping up.", "subscribers_dropped", &s.c.SubscribersDropped)
	counter("malformed_frames_total", "Frames rejected as malformed.", "malformed_frames", &s.c.MalformedFrames)
	counter("connections_accepted_total", "TCP connections accepted.", "", &s.c.ConnectionsAccepted)
	counter("connections_closed_total", "TCP connections closed.", "", &s.c.ConnectionsClosed)
	counter("empty_flushes_total", "Flushes with no subscriber to push to.", "", &s.c.FlushesWithoutSubscribe)
	counter("migrations_out_total", "Outbound key-range migrations completed.", "migrations_out", &s.c.MigrationsOut)
	counter("migrations_in_total", "Inbound key-range migrations completed.", "migrations_in", &s.c.MigrationsIn)
	counter("keys_migrated_out_total", "Keys streamed to adopting stores.", "keys_migrated_out", &s.c.KeysMigratedOut)
	counter("keys_migrated_in_total", "Keys received from donor stores.", "keys_migrated_in", &s.c.KeysMigratedIn)
	counter("forwarded_puts_total", "PUTs forwarded to their new ring owner.", "forwarded_puts", &s.c.ForwardedPuts)
	counter("forwarded_reads_total", "GETs/FILLs forwarded to their new ring owner.", "forwarded_reads", &s.c.ForwardedReads)
	counter("keys_released_total", "Keys dropped after losing ring ownership.", "keys_released", &s.c.KeysReleased)
	counter("rep_writes_out_total", "Replication writes pushed to replicas.", "rep_writes_out", &s.c.RepWritesOut)
	counter("rep_writes_in_total", "Restore pushes applied: replication writes, handoff fences and write tails.", "rep_writes_in", &s.c.RepWritesIn)
	counter("rep_syncs_total", "Replica bootstrap syncs run.", "rep_syncs", &s.c.RepSyncs)
	counter("rep_syncs_served_total", "Replica bootstrap syncs served as primary.", "rep_syncs_served", &s.c.RepSyncsServed)
	counter("heartbeats_sent_total", "Coordinator liveness heartbeats sent.", "heartbeats_sent", &s.c.HeartbeatsSent)

	// Multi-key traffic, labeled by operation so the batch mix is one
	// query: sum by (op).
	r.LabeledCounter("freshcache_store_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mget"}, "mget_ops", &s.c.MGetKeys)
	r.LabeledCounter("freshcache_store_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mput"}, "mput_ops", &s.c.MPutKeys)

	// The update-vs-invalidate policy outcome, labeled so the push mix
	// is one query: sum by (action).
	r.LabeledCounter("freshcache_store_push_decisions_total",
		"Freshness push decisions by action.",
		[]string{"action"}, []string{"invalidate"}, "invalidates_sent", &s.c.InvalidatesSent)
	r.LabeledCounter("freshcache_store_push_decisions_total",
		"Freshness push decisions by action.",
		[]string{"action"}, []string{"update"}, "updates_sent", &s.c.UpdatesSent)
	counter("pushes_leading_total", "Keys pushed as soon as written: read before, and not pushed within the last T.", "pushes_leading", &s.c.PushesLeading)
	counter("pushes_cooldown_total", "Keys pushed after being held: for their cooldown, or for want of a reader.", "pushes_cooldown", &s.c.PushesCooldown)

	gauge("subscribers", "Currently subscribed caches.", "subscribers", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.subs))
	})
	gauge("epoch", "Current batch flush epoch.", "epoch", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.epoch)
	})
	gauge("keys", "Resident authoritative keys.", "keys", func() float64 {
		return float64(s.auth.Len())
	})
	gauge("ring_epoch", "Cluster ring epoch this store serves under.", "ring_epoch", func() float64 {
		s.clMu.RLock()
		defer s.clMu.RUnlock()
		return float64(s.clusterEpoch)
	})
	gauge("replicas", "Cluster replication factor R.", "replicas", func() float64 {
		s.clMu.RLock()
		defer s.clMu.RUnlock()
		if s.replicas < 0 {
			return 0
		}
		return float64(s.replicas)
	})
	gauge("migrations_active", "Outbound migrations in progress.", "migrations_active", func() float64 {
		s.clMu.RLock()
		defer s.clMu.RUnlock()
		return float64(len(s.outMigs))
	})
	gauge("heartbeat_miss_streak", "Consecutive failed coordinator heartbeats.", "heartbeat_misses", func() float64 {
		return float64(s.hbMisses.Load())
	})
	gauge("engine_flushes", "Policy engine flushes: one per write-driven wake-up, slice boundary with a key held, heartbeat or forced flush — not one per slice.", "engine_flushes", func() float64 {
		return float64(s.engine.Stats().Flushes)
	})
	gauge("engine_invalidates", "Invalidate decisions made by the engine.", "engine_inv_sent", func() float64 {
		return float64(s.engine.Stats().InvalidatesSent)
	})
	gauge("engine_updates", "Update decisions made by the engine.", "engine_upd_sent", func() float64 {
		return float64(s.engine.Stats().UpdatesSent)
	})
	gauge("engine_invalidates_skipped", "Invalidates skipped as redundant.", "engine_inv_skipped", func() float64 {
		return float64(s.engine.Stats().SkippedInvalidates)
	})
	gauge("tracker_bytes", "Policy tracker memory footprint.", "tracker_bytes", func() float64 {
		return float64(s.engine.Stats().TrackerBytes)
	})

	r.Histogram("freshcache_store_served_age_ratio",
		"Age of served entries at serve time, as a fraction of the staleness bound T.",
		stats.AgeRatioBuckets, stats.AgeRatioScale, "served_age_samples", &s.servedAge)
	r.Histogram("freshcache_store_replication_rtt_seconds",
		"Replication fan-out latency per acknowledged write.",
		stats.LatencySecondsBuckets, 1e9, "", &s.repRTT)
	// By edge, so the leading series can be held against a write-to-visible
	// probe directly instead of un-mixing one mean.
	dwell := func(edge string, h *stats.Histogram) {
		r.LabeledHistogram("freshcache_store_flush_dwell_seconds",
			"Time a pushed key's oldest unpushed write waited for its flush.",
			[]string{"edge"}, []string{edge}, stats.LatencySecondsBuckets, 1e9, "", h)
	}
	dwell("leading", &s.dwellLeading)
	dwell("cooldown", &s.dwellCooldown)
	r.Histogram("freshcache_store_batch_size",
		"Keys per multi-key request (MGET/MFILL/MPUT).",
		stats.BatchSizeBuckets, 1, "batch_size_samples", &s.batchSize)
	return r
}

// Metrics exposes the store's metric registry (the /metrics source).
func (s *Server) Metrics() *stats.Registry { return s.reg }

// ShardID returns this store's shard identity.
func (s *Server) ShardID() string { return s.cfg.ShardID }

// Authority exposes the underlying KV for tests and tooling.
func (s *Server) Authority() *kv.Authority { return s.auth }

// Engine exposes the policy engine for tests and tooling.
func (s *Server) Engine() *core.Engine { return s.engine }

// Epoch returns the current batch epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("store: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.ln = ln
	s.cancel = cancel
	s.mu.Unlock()

	s.wg.Add(1)
	go s.flusher(ctx)
	if s.cfg.ClusterAddr != "" {
		s.wg.Add(1)
		go s.heartbeatLoop(ctx)
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			cancel()
			return fmt.Errorf("store: accept: %w", err)
		}
		s.c.ConnectionsAccepted.Inc()
		s.wg.Add(1)
		go s.handleConn(ctx, conn)
	}
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

// Close stops the server and waits for connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	ln, cancel := s.ln, s.cancel
	s.mu.Unlock()
	// Signal shutdown before waiting: background replica syncs select
	// on closed between (and during) retries, so a sync against an
	// unreachable primary cannot stall Close for its full retry budget.
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	if cancel != nil {
		cancel()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Before waiting: a connection goroutine waits out the writes whose
	// replication or forward legs are still in flight, and closing the peer
	// clients fails those legs now rather than at their request timeout.
	s.closePeers()
	s.wg.Wait()
	s.closePeers() // any a draining connection dialed meanwhile
	return err
}

func (s *Server) closePeers() {
	s.peerMu.Lock()
	for _, p := range s.peers {
		p.Close()
	}
	s.peers = make(map[string]*client.Client)
	s.peerMu.Unlock()
}

// flusher drives the engine's leading-edge flush (see package core) from
// the writes themselves. A kick — a write request left a key due now, or
// found the engine empty and this loop perhaps asleep until its heartbeat —
// flushes at once, in the current slice, unless a frame went out less than
// floor ago (the flush waits for the floor to end and every write inside it
// rides one frame: at most 1/floor kicked frames a second at any write rate)
// or some subscriber's queue is over half full (the due keys wait for the
// next slice boundary: a subscriber that stalls is sent core.Slices frames
// per T). The one timer serves what no write announces: the next boundary,
// armed only while the engine holds a key — cooldowns end there, and keys
// nobody has read go out there — and the heartbeat, T after the last frame:
// an idle store wakes once per T. Slice numbers come from the wall clock, so
// a late wake-up stretches no cooldown.
func (s *Server) flusher(ctx context.Context) {
	defer s.wg.Done()
	T := s.cfg.T
	floor := min(T, time.Millisecond)
	// Boundaries are kept every step slices: each one, unless T is so short
	// that a slice is shorter than the floor.
	step := uint64(max(1, (floor*core.Slices+T-1)/T))
	startOf := func(n uint64) time.Duration {
		return time.Duration((n*uint64(T) + core.Slices - 1) / core.Slices)
	}
	var (
		start     = time.Now()
		flushed   uint64        // the slice of the last flush
		lastFrame time.Duration // when the last frame went out, since start
		wake      = T           // the boundary or heartbeat the timer owes
	)
	timer := time.NewTimer(wake)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.kick:
		case <-timer.C:
		}
		now := time.Since(start)
		n := uint64(now) * core.Slices / uint64(T)
		declined := false
		if n < flushed+step && now-lastFrame < T { // no boundary, no heartbeat: a kick
			if end := lastFrame + floor; now < end {
				timer.Reset(min(end, wake) - now)
				continue
			}
			declined = s.backlogged()
		}
		if !declined {
			if s.flushOnce(n, false) {
				lastFrame = now
			}
			flushed = n
		}
		wake = lastFrame + T
		if declined || s.engine.Pending() {
			wake = min(wake, startOf(flushed+step))
		}
		timer.Reset(wake - time.Since(start))
	}
}

// kickFlusher tells the flusher that something is due now. It never blocks:
// the one slot already taken means the flusher has yet to look.
func (s *Server) kickFlusher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// backlogged reports whether any subscriber's queue is over half full.
func (s *Server) backlogged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sub := range s.subs {
		if len(sub.out) > cap(sub.out)/2 {
			return true
		}
	}
	return false
}

// flushOnce flushes in slice n — or with everything set, all that is dirty,
// cooldowns ignored — as one epoch frame, and reports whether it sent one. A
// flush with nothing to push sends nothing, unless a whole T has passed
// without a frame: the caches take a longer silence for a dead channel.
func (s *Server) flushOnce(n uint64, everything bool) (sent bool) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.decisions = s.decisions[:0]
	if everything {
		s.decisions = append(s.decisions, s.engine.Flush()...)
	} else {
		s.decisions = s.engine.FlushSlice(n, s.decisions)
	}
	ops := s.ops[:0]
	// Keys whose writes this store forwarded to their new owner during
	// a handoff: the local engine never observed those writes, but the
	// caches still subscribed here under the old ring epoch hold copies
	// that just went stale. Push an invalidate so they refetch (the
	// fill is forwarded too); an update is impossible — the local copy
	// no longer reflects the authority.
	for _, key := range s.fwdDirty.take() {
		ops = append(ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: key})
	}
	now, updates := time.Now().UnixNano(), 0
	for _, d := range s.decisions {
		op := proto.BatchOp{Kind: proto.BatchInvalidate, Key: d.Key}
		switch d.Action {
		case core.ActionNone:
			continue
		case core.ActionUpdate:
			// GetView: entries are immutable once installed, so the
			// borrowed value stays a stable snapshot through the encode
			// without a copy. A key deleted since is invalidated instead.
			if value, version, ok := s.auth.GetView(d.Key); ok {
				op = proto.BatchOp{Kind: proto.BatchUpdate, Key: d.Key, Value: value, Version: version}
				updates++
			}
		}
		pushes, dwell := &s.c.PushesLeading, &s.dwellLeading
		if d.Held {
			pushes, dwell = &s.c.PushesCooldown, &s.dwellCooldown
		}
		pushes.Inc()
		if d.Since != 0 {
			dwell.Observe(float64(now - d.Since))
		}
		ops = append(ops, op)
	}
	s.c.UpdatesSent.Add(uint64(updates))
	s.c.InvalidatesSent.Add(uint64(len(ops) - updates))
	if sent = len(ops) > 0 || everything || n-s.lastBatch >= core.Slices; sent {
		s.lastBatch = max(s.lastBatch, n) // TestFlush has no slice number
		s.pushBatch(ops)
	}
	clear(ops) // the borrowed values must not outlive the encode
	s.ops = ops[:0]
	return sent
}

// pushBatch sends ops (none: a heartbeat) to every subscriber as the next
// epoch's frame.
func (s *Server) pushBatch(ops []proto.BatchOp) {
	s.mu.Lock()
	s.epoch++
	batch := proto.Msg{Type: proto.MsgBatch, Epoch: s.epoch, Ops: ops}
	subs := s.pushSubs[:0]
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	s.pushSubs = subs

	if len(subs) == 0 {
		s.c.FlushesWithoutSubscribe.Inc()
		return
	}
	// Encode the epoch frame once and fan the same bytes out to every
	// subscriber: O(subscribers) memcpys, not O(subscribers) encodes.
	// Each push holds one frame reference; push releases it on failure.
	frame, err := proto.EncodeShared(&batch, len(subs))
	if err != nil {
		// The batch outgrew MaxFrame. Updates are an optimization —
		// downgrade them all to bare invalidates (always correct: the
		// caches refetch) and try once more.
		for i := range batch.Ops {
			batch.Ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: batch.Ops[i].Key}
		}
		if frame, err = proto.EncodeShared(&batch, len(subs)); err != nil {
			// Still too big: skip the push entirely. Subscribers see the
			// epoch gap on the next flush and resynchronize.
			s.cfg.Logger.Printf("store: epoch %d batch exceeds frame limit, forcing resync: %v",
				batch.Epoch, err)
			return
		}
	}
	s.c.BatchEncodes.Inc()
	for _, sub := range subs {
		if sub.push(proto.Outgoing{Raw: frame}) {
			s.c.BatchesSent.Inc()
			s.c.OpsSent.Add(uint64(len(ops)))
		} else {
			// Queue full: the subscriber is stuck. Cut it loose; it
			// will reconnect and resynchronize by epoch gap.
			s.c.SubscribersDropped.Inc()
			s.dropSubscriber(sub)
		}
	}
}

// TestFlush synchronously flushes everything dirty, cooldowns ignored: for
// tests and the benchmark harness (the production path is the flusher).
func (s *Server) TestFlush() { s.flushOnce(0, true) }

func (s *Server) dropSubscriber(sub *subscriber) {
	s.mu.Lock()
	_, present := s.subs[sub]
	delete(s.subs, sub)
	s.mu.Unlock()
	if present {
		sub.conn.Close()
	}
}

// handleConn serves one connection: a read loop dispatching requests and
// a writer goroutine draining the outgoing queue (responses and, for
// subscribers, pushed batches).
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer s.wg.Done()
	defer s.c.ConnectionsClosed.Inc()

	cs := &connState{s: s, ReplyQueue: proto.NewReplyQueue(s.cfg.SubscriberQueue, maxConnInflight)}
	out := cs.Out
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// Coalescing writer: pipelined requests on one connection are
		// answered with one vectored write per burst, not one syscall
		// per response; on a write error it closes conn (unblocking the
		// read loop) and drains out so senders never block.
		proto.WriteQueue(conn, out, conn)
	}()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// One request Msg reused across the whole connection: every dispatch
	// path either answers synchronously, sends what it forwards before it
	// returns, or copies what it keeps (values are copied, keys are
	// interned strings), so nothing aliases m after dispatch returns.
	var m proto.Msg
	r := proto.NewReader(conn)
	for {
		if err := r.ReadMsgInto(&m); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.c.MalformedFrames.Inc()
				s.cfg.Logger.Printf("store: conn %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		tr := proto.StartSpan(&m, s.spanName)
		resp := s.dispatch(&m, conn, cs, out, tr)
		if resp != nil {
			resp = s.finishTrace(tr, resp)
			select {
			case out <- proto.Outgoing{Msg: resp, Pooled: true}:
			case <-ctx.Done():
			}
		}
	}
	if cs.sub != nil {
		s.dropSubscriber(cs.sub)
		cs.sub.retire()
	}
	if cs.mig != nil {
		s.abortMigration(cs.mig)
	}
	cs.Close() // waits out the requests still to be answered off the read loop
	<-writerDone
	conn.Close()
}

// maxConnInflight bounds the requests per connection answered off its
// read loop — writes waiting on their legs, forwarded reads; beyond it the
// read loop exerts backpressure.
const maxConnInflight = 256

// connState is the per-connection server-side state: the queue to its
// writer, holding one slot per request still to be answered off the read
// loop; at most one push subscription; at most one outbound key-range
// migration; and the read loop's scratch for the write, or the read report,
// it is dispatching.
type connState struct {
	s *Server
	*proto.ReplyQueue
	sub   *subscriber
	mig   *outMigration
	write writeScratch
	reads []core.ReadCount
}

// goForward answers a forwarded read asynchronously through the
// connection's writer: it crosses a blocking network round trip and must
// not stall the requests pipelined behind it on this connection.
// Responses may complete out of order; clients demux by Seq.
func (s *Server) goForward(cs *connState, tr *proto.SpanRec, fn func() *proto.Msg) *proto.Msg {
	cs.Acquire()
	go func() {
		defer cs.Release()
		cs.Out <- proto.Outgoing{Msg: s.finishTrace(tr, fn()), Pooled: true}
	}()
	return nil
}

// finishTrace closes a traced request's hop span on its response and
// emits the slow-request span log when the hop exceeded the threshold.
// A nil recorder (every untraced request) passes through untouched.
func (s *Server) finishTrace(tr *proto.SpanRec, resp *proto.Msg) *proto.Msg {
	if tr == nil {
		return resp
	}
	tr.Finish(resp)
	if th := s.cfg.SlowTraceThreshold; th > 0 && resp != nil && resp.Trace != nil && tr.Elapsed() >= th {
		s.cfg.Logger.Printf("store: %s", proto.TraceLogLine(resp.Trace, s.spanName, tr.Elapsed()))
	}
	return resp
}

func (s *Server) dispatch(m *proto.Msg, conn net.Conn, cs *connState, out chan proto.Outgoing, tr *proto.SpanRec) *proto.Msg {
	switch m.Type {
	case proto.MsgGet, proto.MsgFill:
		fill := m.Type == proto.MsgFill
		if fill {
			s.c.Fills.Inc()
		} else {
			s.c.Gets.Inc()
		}
		s.clMu.RLock()
		target, _ := s.placeLocked(m.Key)
		s.clMu.RUnlock()
		if target != "" {
			seq, key := m.Seq, m.Key
			return s.goForward(cs, tr, func() *proto.Msg {
				return s.forwardGet(seq, key, target, fill)
			})
		}
		s.observeRead(m.Key, fill)
		return s.getResp(m)
	case proto.MsgMGet, proto.MsgMFill:
		s.c.MGetKeys.Add(uint64(len(m.Keys)))
		s.batchSize.Observe(float64(len(m.Keys)))
		return s.dispatchMGet(m, cs, tr, m.Type == proto.MsgMFill)
	case proto.MsgPut:
		s.c.Puts.Inc()
		return s.dispatchWrites(m, cs, tr)
	case proto.MsgMPut:
		s.c.MPutKeys.Add(uint64(len(m.Ops)))
		s.batchSize.Observe(float64(len(m.Ops)))
		return s.dispatchWrites(m, cs, tr)
	case proto.MsgSubscribe:
		ns := &subscriber{name: m.Key, out: out, conn: conn}
		s.mu.Lock()
		if old := cs.sub; old != nil {
			// A re-subscribe on the same connection replaces the old
			// registration; leaving it would leak a phantom subscriber
			// that survives disconnect and double-counts every push into
			// the shared queue.
			delete(s.subs, old)
		}
		s.subs[ns] = struct{}{}
		epoch := s.epoch
		s.mu.Unlock()
		cs.sub = ns
		return &proto.Msg{Type: proto.MsgSubResp, Seq: m.Seq, Epoch: epoch, Key: s.cfg.ShardID}
	case proto.MsgReadReport:
		s.c.ReadReports.Inc()
		var stray map[string][]proto.ReadReport
		reads := cs.reads[:0]
		s.clMu.RLock()
		for _, rp := range m.Reports {
			n := min(rp.Count, s.cfg.MaxReportCount)
			if target, _ := s.placeLocked(rp.Key); target != "" {
				if stray == nil {
					stray = make(map[string][]proto.ReadReport)
				}
				stray[target] = append(stray[target], proto.ReadReport{Key: rp.Key, Count: n})
				continue
			}
			reads = append(reads, core.ReadCount{Key: rp.Key, N: n})
		}
		s.clMu.RUnlock()
		s.engine.ObserveReads(reads)
		cs.reads = reads[:0] // keeps no key the reused request Msg does not
		if stray != nil {
			// Reads reported under a stale ring: relay them to the stores
			// that serve those keys so their policy engines keep seeing
			// the full stream. Best effort and fire-and-forget — read
			// statistics are advisory and must not stall the requests
			// pipelined behind this report.
			go s.forwardReports(stray)
		}
		return pong(m.Seq)
	case proto.MsgPing:
		return pong(m.Seq)
	case proto.MsgStats:
		// The registry's legacy wire-map view; the same registry backs
		// /metrics, so both surfaces always agree.
		return &proto.Msg{Type: proto.MsgStatsResp, Seq: m.Seq, Stats: s.reg.StatsMap()}
	case proto.MsgAdopt:
		return s.handleAdopt(m)
	case proto.MsgMigrate:
		return s.handleMigrate(m, cs, out)
	case proto.MsgMigrateAck:
		return s.handleMigrateAck(m.Seq, cs)
	case proto.MsgRelease:
		return s.handleRelease(m)
	case proto.MsgRepSync:
		return s.handleRepSync(m, out)
	case proto.MsgRepWrite:
		// The one restore push: a primary's accepted writes, a donor's
		// version fence or write tail, a failover fence. Tracker counts
		// that ride along are banked, not applied.
		s.applyRestore(m.Ops, m.Freqs, m.Version, true)
		s.c.RepWritesIn.Inc()
		return pong(m.Seq)
	default:
		s.c.MalformedFrames.Inc()
		return errMsg(m.Seq, "store: unexpected message %v", m.Type)
	}
}

// pong builds the bare acknowledgement. It is sent Pooled like every
// dispatch answer, so it is drawn from the pool it will be returned to.
func pong(seq uint64) *proto.Msg {
	resp := proto.GetMsg()
	resp.Type, resp.Seq = proto.MsgPong, seq
	return resp
}

func (s *Server) getResp(m *proto.Msg) *proto.Msg {
	// GetViewAged avoids the copy: authority entries are immutable once
	// installed, and the response Msg (pooled, released by the writer
	// after encode) only ever reads the value.
	value, version, written, ok := s.auth.GetViewAged(m.Key)
	resp := proto.GetMsg()
	resp.Type, resp.Seq = proto.MsgGetResp, m.Seq
	if !ok {
		resp.Status = proto.StatusNotFound
		return resp
	}
	s.observeServedAge(written)
	//freshlint:ignore borrowedview authority entries are immutable once installed; the pooled resp only reads Value during encode, within the entry's lifetime
	resp.Status, resp.Version, resp.Value = proto.StatusOK, version, value
	return resp
}

// observeServedAge records a served entry's age since its last write as
// a fraction of T (in permille; Observe is mutex+array, no allocation).
func (s *Server) observeServedAge(written time.Time) {
	if written.IsZero() {
		return
	}
	age := time.Since(written)
	s.servedAge.Observe(float64(age) / float64(s.cfg.T) * stats.AgeRatioScale)
}
