// Package lb implements the load balancer in front of the caches and the
// store shards (Figure 4): reads are routed to a cache chosen by
// consistent-hash key affinity (so each key's read traffic concentrates
// on one cache and hit ratios stay high, and adding a cache moves only
// ~1/N of the keyspace instead of reshuffling it), writes go to the
// store shard owning the key, and everything else is answered locally.
// It is a message-level proxy built on the same client pools the caches
// use.
//
// Every request is proxied by continuation. The connection's read loop
// picks the cache for a GET (relay), or hands an MGET, a PUT or an MPUT to
// the sharded client to split by cache or by owning store (batch.go: the
// cache tier is a static client.Sharded, the store tier one that follows the
// coordinator's ring), and moves on; each upstream connection's reader then
// runs the completion, and the one that settles the request (relay.Complete,
// scattered.Finish) encodes the downstream response once, into a pooled
// frame, and queues it to the client connection's writer without blocking
// (clientConn.answer, over the proto.ReplyQueue the store and cache servers
// answer through too). No goroutine is spawned and no message changes hands;
// only a write whose store's connection broke under it takes one, inside the
// sharded client, for the blocking ring refresh and retry. Responses on one
// connection may overtake one another; the client matches them by Seq.
//
// Close is graceful: the listener stops accepting, in-flight proxied
// requests drain (bounded by DrainTimeout), and only then are the
// upstream client pools torn down — mirroring how the store and cache
// servers wait out their connection goroutines.
package lb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/cluster"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/stats"
)

// Config configures the balancer.
type Config struct {
	// StoreAddr is the write path of a single-store deployment. Exactly
	// one of StoreAddr and StoreAddrs must be set.
	StoreAddr string
	// StoreAddrs are the authority shards of a sharded deployment;
	// writes route to shards by consistent hashing over this list.
	StoreAddrs []string
	// ClusterAddr, when set, bootstraps the store ring from the
	// cluster coordinator (a comma-separated group under coordinator
	// HA — the watcher rotates past dead members) instead of
	// StoreAddr/StoreAddrs, and watches it: a newly published ring
	// epoch atomically reroutes the write path. The cache ring stays
	// static — only the store tier reshards dynamically.
	ClusterAddr string
	// WatchInterval paces the coordinator poll in cluster mode;
	// defaults to 100ms.
	WatchInterval time.Duration
	// CacheAddrs are the read path targets. At least one is required.
	CacheAddrs []string
	// VirtualNodes sets the ring points per node on both rings; <= 0
	// uses ring.DefaultVirtualNodes.
	VirtualNodes int
	// DrainTimeout bounds how long Close waits for in-flight proxied
	// requests before tearing down the upstream pools; defaults to 5s.
	DrainTimeout time.Duration
	// SlowTraceThreshold, when positive, makes traced requests that take
	// at least this long emit a one-line span log. Zero disables the
	// slow log (traces still propagate on the wire).
	SlowTraceThreshold time.Duration
	// Logger receives diagnostics; nil uses the standard logger.
	Logger *log.Logger
}

// Counters is the balancer's observable state.
type Counters struct {
	Reads, Writes, Errors stats.Counter
	MalformedFrames       stats.Counter
	// MGetKeys/MPutKeys count the keys carried by multi-key requests
	// (batch.go).
	MGetKeys, MPutKeys stats.Counter
}

// Server is a live load balancer.
type Server struct {
	cfg    Config
	stores *client.Sharded
	caches *client.Sharded // a static ring: only the store tier reshards
	c      Counters

	reg *stats.Registry
	// readRTT and writeRTT sample the upstream round trip of every
	// proxied read (to the affine cache) and write (to the owning
	// store) in nanoseconds.
	readRTT  stats.Histogram
	writeRTT stats.Histogram
	// batchSize is the keys-per-request distribution of multi-key
	// operations (MGET/MPUT).
	batchSize stats.Histogram

	mu      sync.Mutex
	ln      net.Listener
	watch   *cluster.Watcher // nil outside cluster mode
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closing bool // Close has begun; guards its once-only drain step

	// inflight counts proxied request/response exchanges so Close can
	// drain them before tearing down the upstream clients. Its sign bit
	// (drainFlag) is set by Close: from then on beginRequest refuses, so
	// the count only falls, and whoever brings it to zero closes drained.
	// One word carries both, so a registration can never slip in between
	// Close's "draining" and its "nothing in flight" — and the request
	// path touches no lock.
	inflight atomic.Int64
	drained  chan struct{}
}

const drainFlag = math.MinInt64

// New builds a balancer. In cluster mode the store ring is fetched
// from the coordinator (which must be reachable within a few seconds).
func New(cfg Config) (*Server, error) {
	var bootstrap client.RingInfo
	if cfg.ClusterAddr == "" {
		addrs, err := client.ResolveStoreAddrs(cfg.StoreAddr, cfg.StoreAddrs)
		if err != nil {
			return nil, fmt.Errorf("lb: %w", err)
		}
		cfg.StoreAddrs = addrs
	} else {
		if cfg.StoreAddr != "" || len(cfg.StoreAddrs) > 0 {
			return nil, errors.New("lb: set a cluster coordinator or store addresses, not both")
		}
		ri, err := cluster.FetchRing(cfg.ClusterAddr, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("lb: %w", err)
		}
		bootstrap = ri
		cfg.StoreAddrs = ri.Nodes
		cfg.VirtualNodes = ri.VirtualNodes
	}
	if cfg.WatchInterval <= 0 {
		cfg.WatchInterval = 100 * time.Millisecond
	}
	if len(cfg.CacheAddrs) == 0 {
		return nil, errors.New("lb: at least one cache address is required")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	stores, err := client.NewSharded(cfg.StoreAddrs, cfg.VirtualNodes, client.Options{})
	if err != nil {
		return nil, fmt.Errorf("lb: %w", err)
	}
	if bootstrap.Epoch > 0 {
		if err := stores.SwapRing(bootstrap.Epoch, bootstrap.Nodes, bootstrap.VirtualNodes); err != nil {
			stores.Close()
			return nil, fmt.Errorf("lb: %w", err)
		}
	}
	caches, err := client.NewSharded(cfg.CacheAddrs, cfg.VirtualNodes, client.Options{})
	if err != nil {
		stores.Close()
		return nil, fmt.Errorf("lb: %w", err)
	}
	s := &Server{cfg: cfg, stores: stores, caches: caches, drained: make(chan struct{})}
	s.reg = s.buildRegistry()
	if cfg.ClusterAddr != "" {
		// On-demand failover for the write path: a write whose owner
		// just crashed refreshes the ring from the coordinator and
		// retries once against the promoted owner, rather than erroring
		// until the watcher's next successful poll.
		stores.SetRefresher(func() (client.RingInfo, bool) {
			ri, err := cluster.FetchRing(cfg.ClusterAddr, time.Second)
			return ri, err == nil
		})
	}
	return s, nil
}

// StoreRing exposes the write-path ring for tests and tooling.
func (s *Server) StoreRing() *ring.Ring { return s.stores.Ring() }

// CacheRing exposes the read-path ring for tests and tooling.
func (s *Server) CacheRing() *ring.Ring { return s.caches.Ring() }

// ListenAndServe listens on addr and proxies until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("lb: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts connections until Close.
func (s *Server) Serve(ln net.Listener) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.ln = ln
	s.cancel = cancel
	s.mu.Unlock()
	if s.cfg.ClusterAddr != "" {
		w := cluster.NewWatcher(s.cfg.ClusterAddr, s.cfg.WatchInterval, s.stores.Epoch(),
			func(ri client.RingInfo) {
				if err := s.stores.SwapRing(ri.Epoch, ri.Nodes, ri.VirtualNodes); err != nil {
					s.cfg.Logger.Printf("lb: swapping to ring epoch %d: %v", ri.Epoch, err)
					return
				}
				s.cfg.Logger.Printf("lb: writes now route by ring epoch %d (%d stores)",
					ri.Epoch, len(ri.Nodes))
			})
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
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if !closing {
				// The listener died on its own. Under Close the client
				// connections must outlive it: Close cancels them itself,
				// once the requests in flight have been answered.
				cancel()
			}
			return fmt.Errorf("lb: accept: %w", err)
		}
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

// Close stops the balancer gracefully: no new connections are accepted,
// in-flight proxied requests finish and respond (bounded by
// DrainTimeout), then the upstream pools close and the connection
// goroutines are waited out.
func (s *Server) Close() error {
	s.mu.Lock()
	ln, cancel := s.ln, s.cancel
	first := !s.closing
	s.closing = true
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if first && s.inflight.Add(drainFlag) == drainFlag {
		close(s.drained) // nothing was in flight
	}
	select {
	case <-s.drained:
	case <-time.After(s.cfg.DrainTimeout):
		s.cfg.Logger.Printf("lb: drain timeout after %v, aborting in-flight proxies", s.cfg.DrainTimeout)
	}
	if cancel != nil {
		cancel() // closes idle client-facing connections
	}
	s.stores.Close()
	s.caches.Close()
	s.wg.Wait()
	return err
}

// beginRequest registers an in-flight exchange unless Close has begun
// draining.
func (s *Server) beginRequest() bool {
	for {
		n := s.inflight.Load()
		if n < 0 {
			return false
		}
		if s.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// endRequests retires n exchanges whose responses were flushed or
// abandoned; the one that empties a draining server releases Close.
func (s *Server) endRequests(n int) {
	if s.inflight.Add(-int64(n)) == drainFlag {
		close(s.drained)
	}
}

// maxConnInflight bounds the concurrently proxied requests per client
// connection; beyond it the read loop exerts backpressure.
const maxConnInflight = 256

// clientConn is what one client connection's read loop shares with the
// completions answering on it: the queue to its writer, holding one slot
// per request in flight (maxConnInflight).
type clientConn struct {
	s *Server
	*proto.ReplyQueue
}

// answer closes tr's hop span on down and sends it as the response to a
// request acquired on cc, without ever waiting for this client — it runs
// on the read loop and on upstream connections' readers, which every
// client connection shares. down may alias buffers that are only valid
// during the call (a lent upstream response, a scattered request's
// scratch): it is
// encoded here, once, into a pooled frame, and the frame is queued
// without blocking.
func (cc *clientConn) answer(tr *proto.SpanRec, down *proto.Msg) {
	o, err := proto.EncodeNow(cc.s.finishTrace(tr, down))
	if err != nil {
		cc.s.c.Errors.Inc()
	}
	// inflight is released by the writer post-flush.
	cc.Answer(o)
}

func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer s.wg.Done()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// 64 frames: a pipelined burst of answers coalesces into one flush
	// without the completions queuing them ever parking one.
	cc := &clientConn{s: s, ReplyQueue: proto.NewReplyQueue(64, maxConnInflight)}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// Each response's inflight slot is released only once its frame
		// is flushed (or abandoned on a dead connection), so Close's
		// drain wait means "responded", not merely "queued".
		proto.WriteQueueFlushed(conn, cc.Out, conn, s.endRequests)
	}()

	// Requests on one connection are answered concurrently (bounded by
	// maxConnInflight) and possibly out of order — each response echoes
	// its request's Seq, and the pipelined client demuxes by it. Without
	// this, one proxied upstream round trip would stall every request
	// queued behind it on the connection.
	r := proto.NewReader(conn)
	var m proto.Msg
	for {
		if err := r.ReadMsgInto(&m); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.c.MalformedFrames.Inc()
				s.cfg.Logger.Printf("lb: conn %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		if !s.beginRequest() {
			break // draining: reject requests arriving after Close
		}
		cc.Acquire()
		tr := proto.StartSpan(&m, "lb")
		// Every case runs to completion here and nothing of m outlives it
		// (keys are interned strings; a write's values are encoded upstream,
		// and copied for the failover retry, before its case returns), so m
		// is reused as is.
		switch m.Type {
		case proto.MsgGet:
			s.relayGet(cc, &m, tr)
		case proto.MsgMGet, proto.MsgPut, proto.MsgMPut:
			s.scatter(cc, &m, tr)
		default:
			cc.answer(tr, s.localResp(&m))
		}
	}
	cc.Close()
	<-writerDone
	conn.Close()
}

// relay is one GET in flight to a cache: the completion that turns the
// cache's answer into the client's. Pooled; the exactly-once rule of
// client.Completion is what makes recycling it in Complete safe.
type relay struct {
	cc    *clientConn
	seq   uint64 // the client's sequence number, re-stamped on the answer
	key   string
	tr    *proto.SpanRec
	start time.Time
}

var relayPool = sync.Pool{New: func() any { return new(relay) }}

// relayGet routes a GET by key affinity and starts it upstream; the
// answer is relayed by (*relay).Complete.
func (s *Server) relayGet(cc *clientConn, m *proto.Msg, tr *proto.SpanRec) {
	s.c.Reads.Inc()
	g := relayPool.Get().(*relay)
	*g = relay{cc: cc, seq: m.Seq, key: m.Key, tr: tr, start: time.Now()}
	s.caches.For(m.Key).GetAsync(m.Key, tr.ID(), g)
}

// Complete relays the cache's answer to the client connection, straight
// from the borrowed upstream response.
func (g *relay) Complete(resp *proto.Msg, err error) {
	cc, s := g.cc, g.cc.s
	s.readRTT.Observe(float64(time.Since(g.start)))
	down := proto.Msg{Type: proto.MsgGetResp, Seq: g.seq, Status: proto.StatusOK}
	if err == nil {
		g.tr.Add(resp.Trace)
		down.Value, down.Version, err = client.DecodeGet(resp, g.key)
	}
	switch {
	case err == nil:
	case errors.Is(err, client.ErrNotFound):
		down.Status = proto.StatusNotFound
	default:
		s.c.Errors.Inc()
		down = proto.Msg{Type: proto.MsgErr, Seq: g.seq, Err: err.Error()}
	}
	cc.answer(g.tr, &down)
	*g = relay{}
	relayPool.Put(g)
}

// finishTrace closes a traced request's hop span on its response and
// emits the slow-request span log when the hop exceeded the configured
// threshold. Both are no-ops for untraced requests (nil recorder).
func (s *Server) finishTrace(tr *proto.SpanRec, resp *proto.Msg) *proto.Msg {
	resp = tr.Finish(resp)
	if th := s.cfg.SlowTraceThreshold; th > 0 && resp != nil && resp.Trace != nil && tr.Elapsed() >= th {
		s.cfg.Logger.Printf("lb: %s", proto.TraceLogLine(resp.Trace, "lb", tr.Elapsed()))
	}
	return resp
}

// localResp answers what the balancer proxies nowhere.
func (s *Server) localResp(m *proto.Msg) *proto.Msg {
	switch m.Type {
	case proto.MsgPing:
		return &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
	case proto.MsgStats:
		return &proto.Msg{Type: proto.MsgStatsResp, Seq: m.Seq, Stats: s.StatsMap()}
	default:
		s.c.MalformedFrames.Inc()
		return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: fmt.Sprintf("lb: unexpected message %v", m.Type)}
	}
}

// buildRegistry wires every balancer metric into one registry rendered
// by both /metrics and MsgStatsResp.
func (s *Server) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	r.Counter("freshcache_lb_reads_total", "GETs proxied to the cache tier.", "reads", &s.c.Reads)
	r.Counter("freshcache_lb_writes_total", "PUTs proxied to the store tier.", "writes", &s.c.Writes)
	r.Counter("freshcache_lb_errors_total", "Proxied requests that failed upstream.", "errors", &s.c.Errors)
	r.Counter("freshcache_lb_malformed_frames_total", "Frames rejected as malformed.", "malformed_frames", &s.c.MalformedFrames)
	r.LabeledCounter("freshcache_lb_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mget"}, "mget_ops", &s.c.MGetKeys)
	r.LabeledCounter("freshcache_lb_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mput"}, "mput_ops", &s.c.MPutKeys)
	gauge := func(name, help, key string, fn func() float64) {
		r.Gauge("freshcache_lb_"+name, help, key, fn)
	}
	gauge("caches", "Cache nodes on the read-path ring.", "caches", func() float64 {
		return float64(s.caches.Len())
	})
	gauge("stores", "Store shards on the write-path ring.", "stores", func() float64 {
		return float64(s.stores.Len())
	})
	gauge("ring_epoch", "Cluster ring epoch writes route by.", "ring_epoch", func() float64 {
		return float64(s.stores.Epoch())
	})
	gauge("failovers", "Owner failovers taken by the sharded store client.", "failovers", func() float64 {
		return float64(s.stores.Failovers())
	})
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
	r.Histogram("freshcache_lb_read_rtt_seconds",
		"Upstream round-trip latency of proxied reads.",
		stats.LatencySecondsBuckets, 1e9, "", &s.readRTT)
	r.Histogram("freshcache_lb_write_rtt_seconds",
		"Upstream round-trip latency of proxied writes.",
		stats.LatencySecondsBuckets, 1e9, "", &s.writeRTT)
	r.Histogram("freshcache_lb_batch_size",
		"Keys per multi-key request (MGET/MPUT).",
		stats.BatchSizeBuckets, 1, "batch_size_samples", &s.batchSize)
	return r
}

// Metrics exposes the balancer's metric registry (the /metrics source).
func (s *Server) Metrics() *stats.Registry { return s.reg }

// StatsMap snapshots the balancer's counters.
func (s *Server) StatsMap() map[string]uint64 { return s.reg.StatsMap() }
