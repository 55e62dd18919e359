// Package cluster is the control plane for dynamic store membership:
// a coordinator that versions the store ring (monotonic ring epochs),
// admits joins and drains at runtime, orchestrates the key-range
// handoff so the data plane reshards live while bounded staleness
// holds end to end, and — under a replication factor R > 1 — runs a
// lease-based failure detector that promotes a dead store's replicas
// automatically.
//
// A membership change runs in three strictly ordered phases:
//
//  1. Adopt — the stores gaining key ranges pull them from the losing
//     stores (proto.MsgAdopt → MsgMigrate stream, see internal/store).
//     The published ring is untouched; routers keep routing to the old
//     owners, which keep serving (and keep pushing freshness traffic).
//  2. Publish — the coordinator bumps the ring epoch. Watching parties
//     (caches, the LB, sharded clients) observe the new epoch, swap
//     rings atomically, re-scope their per-shard subscriptions, and
//     stamp every entry whose ownership moved with a hard deadline of
//     publish-time + T: whatever freshness signal the old owner can no
//     longer provide, the deadline provides.
//  3. Release — the losing stores drop the moved keys and forward
//     stragglers (requests from parties still on the old epoch) to the
//     new owners.
//
// Because adoption completes before publish, and the old owners keep
// serving and forwarding until every watcher has swapped, no read ever
// observes data staler than T across the transition.
//
// A change that fails mid-adopt no longer wedges the cluster behind a
// manual retry: the coordinator latches it as pending (a different
// change would strand half-switched donors), then self-recovers — it
// retries the same change while the store answers pings, and once the
// store is unreachable (or the retries are exhausted) it rolls the
// change back: every survivor pulls its range back from the half-
// adopted store, the current membership republishes under a fresh
// epoch (retiring the donors' forward switches), and the latch clears.
//
// Failover rides the same paths. Stores heartbeat the coordinator
// (proto.MsgHeartbeat) to renew a liveness lease; a store that misses
// its lease is declared dead: any in-flight adoption involving it is
// aborted, the survivors are fenced past the dead store's last
// reported version counter, and a ring without it publishes — no
// adopt phase, because under R-way replication each ring successor
// already holds a replica of every arc it inherits.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/stats"
	"freshcache/internal/xrand"
)

// Config configures a coordinator.
type Config struct {
	// Stores is the initial ring membership (at least one address).
	Stores []string
	// VirtualNodes is the ring geometry shared by every party; <= 0
	// uses ring.DefaultVirtualNodes.
	VirtualNodes int
	// Replicas is the replication factor R: every key lives on its
	// ring owner plus the R−1 next distinct ring successors, and the
	// failure detector may promote a replica when the owner dies.
	// <= 1 disables replication (and makes failover lossy).
	Replicas int
	// LeaseInterval is the liveness lease: a heartbeating store that
	// stays silent for longer is declared dead and failed over.
	// Defaults to 2s. Stores must heartbeat at a small fraction of it.
	LeaseInterval time.Duration
	// RecoveryInterval paces the automatic retry/rollback of a
	// membership change that failed mid-adopt; defaults to 1s.
	RecoveryInterval time.Duration
	// RecoveryAttempts bounds the automatic retries of a failed change
	// before it is rolled back; defaults to 5.
	RecoveryAttempts int
	// ChangeTimeout bounds one membership change's store RPCs (the
	// adopt pull can move a lot of data); defaults to 60s.
	ChangeTimeout time.Duration
	// SelfAddr is this coordinator's advertised address within Peers.
	// Required when Peers is set; it is the identity peers vote for and
	// the redirect target NOTLEADER refusals carry.
	SelfAddr string
	// Peers is the full coordinator group, SelfAddr included. Empty (or
	// one address) runs the coordinator solo, exactly as before this
	// field existed: no elections, no replication traffic. With three
	// or more, the group elects a leased leader that replicates every
	// control-plane mutation to a majority before acting on it.
	Peers []string
	// DataDir, when set, persists the replicated log, ring snapshots
	// and election state under this directory, so a restarted
	// coordinator resumes at its last published epoch instead of
	// amnesia. Empty keeps everything in memory.
	DataDir string
	// LeaderLease is the coordinator leadership lease and election
	// timeout base: a leader renews it by reaching a majority, a
	// follower campaigns after (1–1.5)× of it without leader contact.
	// Defaults to 1s. Only meaningful with Peers.
	LeaderLease time.Duration
	// Logger receives diagnostics; nil uses the standard logger.
	Logger *log.Logger
}

func (c *Config) fill() error {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = ring.DefaultVirtualNodes
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = 2 * time.Second
	}
	if c.RecoveryInterval <= 0 {
		c.RecoveryInterval = time.Second
	}
	if c.RecoveryAttempts <= 0 {
		c.RecoveryAttempts = 5
	}
	if c.ChangeTimeout <= 0 {
		c.ChangeTimeout = 60 * time.Second
	}
	if c.LeaderLease <= 0 {
		c.LeaderLease = time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if len(c.Peers) > 0 {
		if c.SelfAddr == "" {
			return errors.New("cluster: Peers requires SelfAddr")
		}
		found := false
		for _, p := range c.Peers {
			if p == c.SelfAddr {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("cluster: SelfAddr %s is not in Peers %v", c.SelfAddr, c.Peers)
		}
	}
	return nil
}

// lease is one store's liveness record.
type lease struct {
	lastBeat time.Time
	version  uint64 // authority version counter from the last beat
	misses   uint64 // consecutive-failure streak the store last reported
	failing  bool   // failover in progress; suppresses re-detection
}

// Coordinator is a live control-plane node.
type Coordinator struct {
	cfg Config

	// changeMu serializes membership changes (joins, drains,
	// failovers, rollbacks); state reads (RingGet polls, heartbeats)
	// only take mu, so watchers are never blocked behind a migration.
	changeMu sync.Mutex

	mu          sync.Mutex
	epoch       uint64
	nodes       []string
	publishedAt time.Time
	joins       uint64
	drains      uint64
	failed      uint64
	failovers   uint64
	rollbacks   uint64
	heartbeats  uint64
	// pending, when non-empty, names the store of a membership change
	// that failed partway (some donors may already be forwarding their
	// arcs to a store the ring never published). Until the same change
	// completes or rolls back, other membership changes are refused.
	// Written under changeMu; read under mu (the failure detector and
	// stats must not block behind an in-flight adoption).
	pending     string
	pendingKind string // "join" or "drain"
	recovering  bool   // a recovery goroutine is live
	// leases tracks every heartbeating store; the detector only acts
	// on ring members (and the pending store).
	leases map[string]*lease
	// In-flight adoption RPC clients, registered so the failure
	// detector can abort an adoption involving a dead store (closing
	// the clients fails the RPCs, unwinding the change immediately).
	inflightInvolved map[string]struct{}
	inflightClients  []*client.Client

	// ---- Replicated control plane (multi-coordinator mode) ----
	self        string   // our advertised address within the group
	peers       []string // the other coordinators (empty = solo mode)
	quorum      int      // majority of the full group, self included
	leaderLease time.Duration

	// proposeMu serializes log appends: each full-state entry must
	// snapshot the state left by the previous one.
	proposeMu sync.Mutex

	// repMu guards the election/log state below. Never held together
	// with mu (state snapshots and applies take them in turn).
	repMu           sync.Mutex
	role            role
	term            uint64
	votedFor        string
	leaderAddr      string // believed leader ("" while unknown)
	lastHeard       time.Time
	majorityAt      time.Time // leader: last majority-acked round
	electionTimeout time.Duration
	lastIndex       uint64
	lastTerm        uint64
	lastEntry       logEntry
	commitIdx       uint64
	appliedIdx      uint64
	elections       uint64 // candidacies started (stats)
	rng             *xrand.PCG

	disk      *diskLog
	peerConns map[string]*client.Client

	reg *stats.Registry

	ln     net.Listener
	cancel chan struct{}
	wg     sync.WaitGroup
}

// New builds a coordinator. A fresh one publishes cfg.Stores as ring
// epoch 1; one restarted over a non-empty DataDir restores its
// replicated log instead and resumes at its last recorded epoch
// (cfg.Stores is then only the fallback for an empty log).
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:         cfg,
		self:        cfg.SelfAddr,
		leaderLease: cfg.LeaderLease,
		leases:      make(map[string]*lease),
		cancel:      make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p != cfg.SelfAddr {
			co.peers = append(co.peers, p)
		}
	}
	co.quorum = (len(co.peers)+1)/2 + 1
	restored := false
	if cfg.DataDir != "" {
		disk, meta, entries, err := openDiskLog(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		co.disk = disk
		co.term, co.votedFor = meta.Term, meta.VotedFor
		for _, e := range entries {
			if e.supersedes(co.lastTerm, co.lastIndex) {
				co.lastTerm, co.lastIndex, co.lastEntry = e.Term, e.Index, e
			}
		}
		if co.lastIndex > 0 {
			// Replay to exactly the newest entry on disk: full-state
			// entries make the last one the whole story.
			co.commitIdx, co.appliedIdx = co.lastIndex, co.lastIndex
			e := co.lastEntry
			co.epoch = e.Epoch
			co.nodes = append([]string(nil), e.Nodes...)
			co.publishedAt = time.Unix(0, e.Stamp)
			co.pending, co.pendingKind = e.Pending, e.PendingKind
			now := time.Now()
			for _, a := range e.Leases {
				co.leases[a] = &lease{lastBeat: now}
			}
			restored = true
			cfg.Logger.Printf("cluster: restored from %s: ring epoch %d over %d stores (term %d, log index %d)",
				cfg.DataDir, co.epoch, len(co.nodes), co.term, co.lastIndex)
		}
	}
	if !restored {
		if len(cfg.Stores) == 0 {
			return nil, errors.New("cluster: at least one initial store is required")
		}
		if _, err := ring.New(cfg.Stores, cfg.VirtualNodes); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		co.epoch = 1
		co.nodes = append([]string(nil), cfg.Stores...)
		co.publishedAt = time.Now()
	}
	if len(co.peers) == 0 {
		// Solo mode: always the leader, no election machinery.
		co.role = roleLeader
		co.leaderAddr = co.self
	} else {
		co.role = roleFollower
		co.lastHeard = time.Now()
		co.rng = xrand.New(seedFor(co.self), 1)
		co.electionTimeout = co.randTimeoutLocked()
		rto := peerRPCTimeout(co.leaderLease)
		co.peerConns = make(map[string]*client.Client, len(co.peers))
		for _, p := range co.peers {
			co.peerConns[p] = client.New(p, client.Options{
				MaxConns: 1, DialTimeout: rto, RequestTimeout: rto, MaxAttempts: 1,
			})
		}
	}
	co.reg = co.buildRegistry()
	return co, nil
}

// RingInfo snapshots the current published ring.
func (co *Coordinator) RingInfo() client.RingInfo {
	co.mu.Lock()
	defer co.mu.Unlock()
	return client.RingInfo{
		Epoch:        co.epoch,
		Nodes:        append([]string(nil), co.nodes...),
		VirtualNodes: co.cfg.VirtualNodes,
		Replicas:     co.cfg.Replicas,
		PublishedAt:  co.publishedAt,
	}
}

// ListenAndServe listens on addr and serves until Close.
func (co *Coordinator) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return co.Serve(ln)
}

// Serve accepts connections until Close, running the failure detector
// in the background. Control-plane traffic is strictly
// request/response, so each connection runs one synchronous loop; a
// join or drain blocks only its own connection.
func (co *Coordinator) Serve(ln net.Listener) error {
	co.mu.Lock()
	co.ln = ln
	co.mu.Unlock()
	co.wg.Add(1)
	go co.detectLoop()
	if len(co.peers) > 0 {
		co.wg.Add(2)
		go co.electionLoop()
		go co.pulseLoop()
	} else if p, _ := co.pendingChange(); p != "" {
		// A solo coordinator restarted over a latched change resumes
		// its recovery immediately; in group mode becomeLeader does.
		co.scheduleRecovery()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: accept: %w", err)
		}
		co.wg.Add(1)
		go co.handleConn(conn)
	}
}

// Addr returns the bound listener address (nil before Serve).
func (co *Coordinator) Addr() net.Addr {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.ln == nil {
		return nil
	}
	return co.ln.Addr()
}

// Close stops the coordinator.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	ln := co.ln
	co.mu.Unlock()
	select {
	case <-co.cancel:
	default:
		close(co.cancel)
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	co.wg.Wait()
	for _, c := range co.peerConns {
		c.Close()
	}
	if cerr := co.disk.close(); err == nil {
		err = cerr
	}
	return err
}

func (co *Coordinator) handleConn(conn net.Conn) {
	defer co.wg.Done()
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-co.cancel:
			conn.Close()
		case <-done:
		}
	}()
	r, w := proto.NewReader(conn), proto.NewWriter(conn)
	for {
		m, err := r.ReadMsg()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				select {
				case <-co.cancel:
				default:
					co.cfg.Logger.Printf("cluster: conn %s: %v", conn.RemoteAddr(), err)
				}
			}
			return
		}
		if err := w.WriteMsg(co.dispatch(m)); err != nil {
			return
		}
	}
}

func ringResp(seq uint64, ri client.RingInfo) *proto.Msg {
	return &proto.Msg{Type: proto.MsgRingResp, Seq: seq, Epoch: ri.Epoch,
		Stamp: ri.PublishedAt.UnixNano(), Version: uint64(ri.VirtualNodes),
		Replicas: uint32(ri.Replicas), Nodes: ri.Nodes}
}

func (co *Coordinator) dispatch(m *proto.Msg) *proto.Msg {
	switch m.Type {
	case proto.MsgRingGet:
		// Served from any group member's committed state: watchers only
		// move forward on epoch, so a follower mid-catch-up is merely
		// quiet, never wrong.
		return ringResp(m.Seq, co.RingInfo())
	case proto.MsgHeartbeat:
		// Lease renewal must reach the leader — it runs the failure
		// detector; a follower redirects so stores hunt the leader down.
		if !co.isLeaderNow() {
			return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq,
				Err: notLeaderError(co.currentLeader()).Error()}
		}
		co.noteHeartbeat(m.Key, m.Version, m.Epoch)
		return ringResp(m.Seq, co.RingInfo())
	case proto.MsgVote:
		return co.handleVote(m)
	case proto.MsgAppend:
		return co.handleAppend(m)
	case proto.MsgJoin:
		ri, err := co.Join(m.Key)
		if err != nil {
			return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: err.Error()}
		}
		return ringResp(m.Seq, ri)
	case proto.MsgDrain:
		ri, err := co.Drain(m.Key)
		if err != nil {
			return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: err.Error()}
		}
		return ringResp(m.Seq, ri)
	case proto.MsgPing:
		return &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
	case proto.MsgStats:
		return &proto.Msg{Type: proto.MsgStatsResp, Seq: m.Seq, Stats: co.statsMap()}
	default:
		return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq,
			Err: fmt.Sprintf("cluster: unexpected message %v", m.Type)}
	}
}

// statsMap snapshots the coordinator's state, including per-store
// lease ages (ms) so `freshctl status` can render liveness.
func (co *Coordinator) statsMap() map[string]uint64 { return co.reg.StatsMap() }

// Metrics exposes the coordinator's metric registry (the /metrics
// source).
func (co *Coordinator) Metrics() *stats.Registry { return co.reg }

// buildRegistry wires the coordinator's control-plane state into one
// registry rendered by both /metrics and MsgStatsResp. The dynamic
// bracket keys of the legacy map (lease_age_ms[addr], ...) become
// labeled gauge families; their wire-map spellings are preserved so
// `freshctl status` keeps parsing them.
func (co *Coordinator) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	// Monotonic event counts, kept under co.mu / co.repMu rather than in
	// atomic counters; read through closures at render time.
	muCount := func(fn func() uint64) func() float64 {
		return func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			return float64(fn())
		}
	}
	repCount := func(fn func() uint64) func() float64 {
		return func() float64 {
			co.repMu.Lock()
			defer co.repMu.Unlock()
			return float64(fn())
		}
	}
	r.CounterFunc("freshcache_coord_joins_total", "Store joins admitted.", "joins", muCount(func() uint64 { return co.joins }))
	r.CounterFunc("freshcache_coord_drains_total", "Store drains completed.", "drains", muCount(func() uint64 { return co.drains }))
	r.CounterFunc("freshcache_coord_stores_failed_total", "Stores declared dead by the failure detector.", "failed", muCount(func() uint64 { return co.failed }))
	r.CounterFunc("freshcache_coord_failovers_total", "Automatic failovers published.", "failovers", muCount(func() uint64 { return co.failovers }))
	r.CounterFunc("freshcache_coord_rollbacks_total", "Membership changes rolled back.", "rollbacks", muCount(func() uint64 { return co.rollbacks }))
	r.CounterFunc("freshcache_coord_heartbeats_total", "Store liveness heartbeats received.", "heartbeats", muCount(func() uint64 { return co.heartbeats }))
	r.CounterFunc("freshcache_coord_elections_total", "Leadership candidacies started.", "elections", repCount(func() uint64 { return co.elections }))

	gauge := func(name, help, key string, fn func() float64) {
		r.Gauge("freshcache_coord_"+name, help, key, fn)
	}
	gauge("ring_epoch", "Currently published ring epoch.", "ring_epoch", muCount(func() uint64 { return co.epoch }))
	gauge("stores", "Stores in the published ring.", "stores", muCount(func() uint64 { return uint64(len(co.nodes)) }))
	gauge("replicas", "Configured replication factor R.", "replicas", func() float64 { return float64(co.cfg.Replicas) })
	// Exposition is in seconds (Prometheus base unit); the legacy wire
	// keys freshctl parses stay in milliseconds via the StatsMap scale.
	r.GaugeScaled("freshcache_coord_lease_interval_seconds", "Liveness lease interval in seconds.",
		"lease_interval_ms", 1000, func() float64 {
			return co.cfg.LeaseInterval.Seconds()
		})
	gauge("coordinators", "Coordinator group size, self included.", "coordinators", func() float64 {
		return float64(len(co.peers) + 1)
	})
	gauge("raft_term", "Current election term.", "raft_term", repCount(func() uint64 { return co.term }))
	gauge("raft_last_index", "Last replicated log index.", "raft_last_index", repCount(func() uint64 { return co.lastIndex }))
	gauge("raft_commit_index", "Highest committed log index.", "raft_commit_index", repCount(func() uint64 { return co.commitIdx }))
	gauge("is_leader", "1 while this coordinator holds the leadership lease.", "is_leader", func() float64 {
		if co.isLeaderNow() {
			return 1
		}
		return 0
	})

	r.GaugeVec("freshcache_coord_leader", "The coordinator currently believed leader (value 1).",
		"addr", "leader[%s]", func() map[string]float64 {
			co.repMu.Lock()
			defer co.repMu.Unlock()
			if co.leaderAddr == "" {
				return nil
			}
			return map[string]float64{co.leaderAddr: 1}
		})
	r.GaugeVec("freshcache_coord_pending_change", "A membership change stuck mid-adopt (value 1).",
		"change", "pending[%s]", func() map[string]float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			if co.pending == "" {
				return nil
			}
			return map[string]float64{co.pendingKind + " " + co.pending: 1}
		})
	r.GaugeVecScaled("freshcache_coord_lease_age_seconds", "Seconds since each store's last liveness heartbeat.",
		"store", "lease_age_ms[%s]", 1000, func() map[string]float64 {
			now := time.Now()
			co.mu.Lock()
			defer co.mu.Unlock()
			out := make(map[string]float64, len(co.leases))
			for addr, ls := range co.leases {
				out[addr] = now.Sub(ls.lastBeat).Seconds()
			}
			return out
		})
	r.GaugeVec("freshcache_coord_heartbeat_misses", "Consecutive-failure streak each store last reported.",
		"store", "heartbeat_misses[%s]", func() map[string]float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			var out map[string]float64
			for addr, ls := range co.leases {
				if ls.misses > 0 {
					if out == nil {
						out = make(map[string]float64)
					}
					out[addr] = float64(ls.misses)
				}
			}
			return out
		})
	return r
}

// noteHeartbeat renews a store's liveness lease; misses is the
// consecutive-failure streak the store reported overcoming to deliver
// this beat. A first-ever beat replicates the registration to the
// coordinator group (best effort, off the heartbeat path), so a new
// leader inherits the detector's watch list.
func (co *Coordinator) noteHeartbeat(addr string, version, misses uint64) {
	if addr == "" {
		return
	}
	co.mu.Lock()
	co.heartbeats++
	ls := co.leases[addr]
	isNew := ls == nil
	if isNew {
		ls = &lease{}
		co.leases[addr] = ls
	}
	ls.lastBeat = time.Now()
	ls.misses = misses
	// A recovered store re-arms its detection: without this, a store
	// once declared suspect (e.g. the unremovable-last-member path)
	// would be exempt from failure detection forever after.
	ls.failing = false
	if version > ls.version {
		ls.version = version
	}
	co.mu.Unlock()
	if isNew && (len(co.peers) > 0 || co.disk != nil) {
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			if err := co.propose("lease", nil); err != nil {
				co.cfg.Logger.Printf("cluster: replicating lease registration of %s: %v", addr, err)
			}
		}()
	}
}

// storeClient dials a short-lived control client for one store RPC.
func (co *Coordinator) storeClient(addr string) *client.Client {
	return client.New(addr, client.Options{
		MaxConns:       1,
		RequestTimeout: co.cfg.ChangeTimeout,
		MaxAttempts:    1,
	})
}

// probeClient dials a tight-timeout client for liveness probes and
// fences, where hanging a minute behind ChangeTimeout is unacceptable.
func (co *Coordinator) probeClient(addr string) *client.Client {
	return client.New(addr, client.Options{
		MaxConns: 1, DialTimeout: 2 * time.Second,
		RequestTimeout: 2 * time.Second, MaxAttempts: 1,
	})
}

// ---- Adoption tracking (failure-detector abort hook) ----

// adoptClient creates and registers a store client for an in-flight
// adoption, so abortAdoption can fail it from outside. Callers must
// endAdoption when the adoption phase finishes.
func (co *Coordinator) adoptClient(addr string) *client.Client {
	c := co.storeClient(addr)
	co.mu.Lock()
	co.inflightClients = append(co.inflightClients, c)
	co.mu.Unlock()
	return c
}

// beginAdoption records the parties of an in-flight adoption phase.
func (co *Coordinator) beginAdoption(involved ...string) {
	co.mu.Lock()
	co.inflightInvolved = make(map[string]struct{}, len(involved))
	for _, a := range involved {
		co.inflightInvolved[a] = struct{}{}
	}
	co.inflightClients = nil
	co.mu.Unlock()
}

// endAdoption clears the in-flight adoption record and closes its
// clients.
func (co *Coordinator) endAdoption() {
	co.mu.Lock()
	clients := co.inflightClients
	co.inflightClients = nil
	co.inflightInvolved = nil
	co.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// abortAdoption fails the in-flight adoption if it involves addr: the
// RPC clients close, the pending Adopt calls return errors, and the
// change unwinds without waiting out ChangeTimeout.
func (co *Coordinator) abortAdoption(addr string) {
	co.mu.Lock()
	_, involved := co.inflightInvolved[addr]
	var clients []*client.Client
	if involved {
		clients = co.inflightClients
		co.inflightClients = nil
	}
	co.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	if involved {
		co.cfg.Logger.Printf("cluster: aborted in-flight adoption involving dead store %s", addr)
	}
}

// ---- Membership changes ----

// Join admits a new store: adopt (the joiner pulls its range from
// every current owner), publish (epoch+1), release (the donors drop
// the moved keys and forward stragglers).
func (co *Coordinator) Join(addr string) (client.RingInfo, error) {
	co.changeMu.Lock()
	defer co.changeMu.Unlock()
	if addr == "" {
		return client.RingInfo{}, errors.New("cluster: join: empty store address")
	}
	if !co.isLeaderNow() {
		return client.RingInfo{}, notLeaderError(co.currentLeader())
	}
	if err := co.admitChange(addr); err != nil {
		return client.RingInfo{}, err
	}
	cur := co.RingInfo()
	for _, n := range cur.Nodes {
		if n == addr {
			co.clearPending() // a pending join that in fact published
			return client.RingInfo{}, fmt.Errorf("cluster: join: %s is already a ring member", addr)
		}
	}
	cand := cur
	cand.Epoch = cur.Epoch + 1
	cand.Nodes = append(append([]string(nil), cur.Nodes...), addr)
	co.beginAdoption(append([]string{addr}, cur.Nodes...)...)
	defer co.endAdoption()
	joiner := co.adoptClient(addr)
	if err := joiner.Ping(); err != nil {
		co.noteFailed()
		return client.RingInfo{}, fmt.Errorf("cluster: join: store %s unreachable: %w", addr, err)
	}
	// Latch (and replicate) the change before the first donor mutates:
	// from here on, a coordinator crash leaves the latch on a majority
	// and the next leader resumes or rolls the adoption back.
	if err := co.setPending(addr, "join"); err != nil {
		co.noteFailed()
		return client.RingInfo{}, fmt.Errorf("cluster: join: %w", err)
	}
	co.cfg.Logger.Printf("cluster: join %s: adopting from %v (epoch %d)", addr, cur.Nodes, cand.Epoch)
	if err := joiner.Adopt(cand, addr, cur.Nodes); err != nil {
		// A donor may already have switched its arc to forwarding; the
		// latch is already replicated — let the recovery loop retry or
		// roll it back, no operator retry needed.
		co.noteFailed()
		co.scheduleRecovery()
		return client.RingInfo{}, fmt.Errorf("cluster: join: adopt failed (auto-retrying): %w", err)
	}
	ri, err := co.publish(cand) // the ring entry clears the latch
	if err != nil {
		co.noteFailed()
		co.scheduleRecovery()
		return client.RingInfo{}, fmt.Errorf("cluster: join: %w", err)
	}
	co.mu.Lock()
	co.joins++
	co.mu.Unlock()
	co.release(ri, cur.Nodes)
	co.cfg.Logger.Printf("cluster: join %s: published ring epoch %d (%d stores)",
		addr, ri.Epoch, len(ri.Nodes))
	return ri, nil
}

// Drain removes a store: every remaining store adopts its share of the
// leaving store's range, the ring publishes without it, and the
// leaving store releases (drops everything, forwards stragglers). The
// store process itself is left running for the operator to stop.
func (co *Coordinator) Drain(addr string) (client.RingInfo, error) {
	co.changeMu.Lock()
	defer co.changeMu.Unlock()
	if !co.isLeaderNow() {
		return client.RingInfo{}, notLeaderError(co.currentLeader())
	}
	if err := co.admitChange(addr); err != nil {
		return client.RingInfo{}, err
	}
	cur := co.RingInfo()
	remaining := make([]string, 0, len(cur.Nodes))
	for _, n := range cur.Nodes {
		if n != addr {
			remaining = append(remaining, n)
		}
	}
	if len(remaining) == len(cur.Nodes) {
		co.clearPending() // a pending drain that in fact published
		return client.RingInfo{}, fmt.Errorf("cluster: drain: %s is not a ring member", addr)
	}
	if len(remaining) == 0 {
		return client.RingInfo{}, errors.New("cluster: drain: refusing to drain the last store")
	}
	cand := cur
	cand.Epoch = cur.Epoch + 1
	cand.Nodes = remaining
	if err := co.setPending(addr, "drain"); err != nil {
		co.noteFailed()
		return client.RingInfo{}, fmt.Errorf("cluster: drain: %w", err)
	}
	co.cfg.Logger.Printf("cluster: drain %s: %d stores adopting (epoch %d)",
		addr, len(remaining), cand.Epoch)
	co.beginAdoption(append([]string{addr}, remaining...)...)
	defer co.endAdoption()
	for _, node := range remaining {
		err := co.adoptClient(node).Adopt(cand, node, []string{addr})
		if err != nil {
			co.noteFailed()
			co.scheduleRecovery()
			return client.RingInfo{}, fmt.Errorf("cluster: drain: adopt by %s failed (auto-retrying): %w",
				node, err)
		}
	}
	ri, err := co.publish(cand) // the ring entry clears the latch
	if err != nil {
		co.noteFailed()
		co.scheduleRecovery()
		return client.RingInfo{}, fmt.Errorf("cluster: drain: %w", err)
	}
	co.mu.Lock()
	co.drains++
	co.mu.Unlock()
	co.release(ri, append(remaining, addr))
	co.cfg.Logger.Printf("cluster: drain %s: published ring epoch %d (%d stores)",
		addr, ri.Epoch, len(ri.Nodes))
	return ri, nil
}

// publish replicates the candidate ring to a coordinator majority and
// installs it as the current one. The same entry clears the pending
// latch — a change completes or stays latched atomically, there is no
// window where a crash loses one but keeps the other. An error means
// the ring did NOT publish (this coordinator lost its leadership or
// its quorum) and the caller's change must not proceed.
func (co *Coordinator) publish(cand client.RingInfo) (client.RingInfo, error) {
	stamp := time.Now()
	err := co.propose("ring", func(e *logEntry) {
		e.Epoch = cand.Epoch
		e.Nodes = append([]string(nil), cand.Nodes...)
		e.Stamp = stamp.UnixNano()
		e.Pending, e.PendingKind = "", ""
	})
	if err != nil {
		return client.RingInfo{}, fmt.Errorf("cluster: publish epoch %d: %w", cand.Epoch, err)
	}
	cand.PublishedAt = stamp
	return cand, nil
}

// release tells each target store the ring is published so it can drop
// keys outside its replica set and forward stragglers. Failures are
// logged, not fatal: an unreleased store merely holds (and keeps
// forwarding for) a little extra data until the next change — or its
// own heartbeat anti-entropy — reaches it.
func (co *Coordinator) release(ri client.RingInfo, targets []string) {
	seen := make(map[string]struct{}, len(targets))
	sorted := append([]string(nil), targets...)
	sort.Strings(sorted)
	for _, node := range sorted {
		if _, dup := seen[node]; dup {
			continue
		}
		seen[node] = struct{}{}
		c := co.storeClient(node)
		if err := c.Release(ri, node); err != nil {
			co.cfg.Logger.Printf("cluster: release to %s: %v", node, err)
		}
		c.Close()
	}
}

func (co *Coordinator) noteFailed() {
	co.mu.Lock()
	co.failed++
	co.mu.Unlock()
}

// setPending records (or clears) the incomplete-change latch,
// replicating it to the coordinator group before anything acts on it —
// a leader crash mid-change leaves the latch on a majority, so the
// next leader resumes or rolls the change back instead of stranding
// half-switched donors. No-op (and no log entry) when the latch
// already holds the requested value. Caller holds changeMu.
func (co *Coordinator) setPending(addr, kind string) error {
	if cur, curKind := co.pendingChange(); cur == addr && curKind == kind {
		return nil
	}
	return co.propose("pending", func(e *logEntry) {
		e.Pending, e.PendingKind = addr, kind
	})
}

// clearPending drops the latch (replicated like setPending).
func (co *Coordinator) clearPending() {
	if err := co.setPending("", ""); err != nil {
		co.cfg.Logger.Printf("cluster: clearing pending latch: %v", err)
	}
}

func (co *Coordinator) pendingChange() (addr, kind string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.pending, co.pendingKind
}

// admitChange enforces the pending-change latch; caller holds
// changeMu.
func (co *Coordinator) admitChange(addr string) error {
	pending, _ := co.pendingChange()
	if pending != "" && pending != addr {
		return fmt.Errorf("cluster: a membership change for %s is incomplete (recovering); retry shortly or change %s after it resolves",
			pending, addr)
	}
	return nil
}

// ---- Pending-change recovery ----

// scheduleRecovery starts the background loop that resolves a pending
// change (retry while the store lives, roll back otherwise); caller
// holds changeMu. Idempotent.
func (co *Coordinator) scheduleRecovery() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.recovering {
		return
	}
	co.recovering = true
	co.wg.Add(1)
	go co.recoveryLoop()
}

func (co *Coordinator) recoveryLoop() {
	defer co.wg.Done()
	defer func() {
		co.mu.Lock()
		co.recovering = false
		co.mu.Unlock()
	}()
	for attempt := 1; ; attempt++ {
		select {
		case <-co.cancel:
			return
		case <-time.After(co.cfg.RecoveryInterval):
		}
		if !co.isLeaderNow() {
			// Only the leader may mutate stores; the change stays
			// latched on a majority and the next leader resumes it.
			return
		}
		addr, kind := co.pendingChange()
		if addr == "" {
			return // completed or rolled back elsewhere (failover)
		}
		probe := co.probeClient(addr)
		alive := probe.Ping() == nil
		probe.Close()
		if alive && attempt <= co.cfg.RecoveryAttempts {
			var err error
			if kind == "drain" {
				_, err = co.Drain(addr)
			} else {
				_, err = co.Join(addr)
			}
			if err == nil {
				co.cfg.Logger.Printf("cluster: pending %s of %s recovered on retry %d", kind, addr, attempt)
				return
			}
			co.cfg.Logger.Printf("cluster: pending %s of %s: retry %d/%d failed: %v",
				kind, addr, attempt, co.cfg.RecoveryAttempts, err)
			if p, _ := co.pendingChange(); p == "" {
				return // the retry resolved the latch (e.g. already a member)
			}
			continue
		}
		// Dead, or out of retries: roll the change back.
		co.changeMu.Lock()
		if p, _ := co.pendingChange(); p == addr {
			co.rollbackPending(addr, kind, alive)
		}
		co.changeMu.Unlock()
		return
	}
}

// rollbackPending unwinds a change that failed mid-adopt: every
// current member pulls back (from the half-adopted store, if it still
// answers) the keys the current membership assigns to it — recovering
// writes that were forwarded to the unpublished store — and the
// current membership republishes under a fresh epoch, which retires
// the donors' forward switches. Caller holds changeMu.
func (co *Coordinator) rollbackPending(addr, kind string, alive bool) {
	cur := co.RingInfo()
	cand := cur
	// The failed change's candidate epoch (cur+1) may already be
	// installed on its adopters — with the candidate node list. Stores
	// skip installs at or below their current epoch (release tolerates
	// failures by leaning on anti-entropy), so republishing the same
	// number with a different ring could never repair a store that
	// missed the release RPC. Burn an epoch: the rollback dominates
	// every copy of the stranded candidate.
	cand.Epoch = cur.Epoch + 2
	if alive {
		// Reverse migration, reusing the adopt machinery with the
		// half-adopted store as the sole donor. For a failed join every
		// member reclaims its arc from the joiner; for a failed drain
		// the drained store reclaims its arcs from the members that
		// already adopted them.
		var pulls [][2]string // adopter, donor
		if kind == "drain" {
			for _, n := range cur.Nodes {
				if n != addr {
					pulls = append(pulls, [2]string{addr, n})
				}
			}
		} else {
			for _, n := range cur.Nodes {
				pulls = append(pulls, [2]string{n, addr})
			}
		}
		for _, p := range pulls {
			c := co.storeClient(p[0])
			if err := c.Adopt(cand, p[0], []string{p[1]}); err != nil {
				co.cfg.Logger.Printf("cluster: rollback pull %s<-%s: %v", p[0], p[1], err)
			}
			c.Close()
		}
	}
	ri, err := co.publish(cand) // the ring entry clears the latch
	if err != nil {
		// Lost leadership mid-rollback: the latch stays replicated and
		// the new leader redoes the rollback (the pulls are idempotent).
		co.cfg.Logger.Printf("cluster: rollback of pending %s of %s: %v", kind, addr, err)
		return
	}
	co.mu.Lock()
	co.rollbacks++
	co.mu.Unlock()
	co.release(ri, append(append([]string(nil), cur.Nodes...), addr))
	co.cfg.Logger.Printf("cluster: rolled back pending %s of %s: republished epoch %d over %d stores",
		kind, addr, ri.Epoch, len(ri.Nodes))
}

// ---- Failure detection and failover ----

// detectLoop scans the leases a few times per lease interval and fails
// over stores that went silent. Stores that never heartbeat (static
// deployments, tests) are invisible to it.
func (co *Coordinator) detectLoop() {
	defer co.wg.Done()
	tick := co.cfg.LeaseInterval / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-co.cancel:
			return
		case <-ticker.C:
			co.checkLeases()
		}
	}
}

func (co *Coordinator) checkLeases() {
	// Only a leader with a live majority lease may declare stores dead:
	// a partitioned ex-leader acting on silence it caused itself would
	// fail over healthy shards (and its publishes would be rejected
	// anyway). Followers grace every lease when they take over.
	if !co.isLeaderNow() {
		return
	}
	now := time.Now()
	type deadStore struct {
		addr    string
		version uint64
	}
	var dead []deadStore
	co.mu.Lock()
	members := make(map[string]struct{}, len(co.nodes))
	for _, n := range co.nodes {
		members[n] = struct{}{}
	}
	pending := co.pending
	for addr, ls := range co.leases {
		if ls.failing || now.Sub(ls.lastBeat) <= co.cfg.LeaseInterval {
			continue
		}
		if _, member := members[addr]; !member && addr != pending {
			// Not ours to fail over (drained, or never admitted); drop
			// long-stale records so the map does not grow forever.
			if now.Sub(ls.lastBeat) > 10*co.cfg.LeaseInterval {
				delete(co.leases, addr)
			}
			continue
		}
		ls.failing = true
		dead = append(dead, deadStore{addr: addr, version: ls.version})
	}
	co.mu.Unlock()
	for _, d := range dead {
		co.cfg.Logger.Printf("cluster: store %s missed its %v lease; failing over", d.addr, co.cfg.LeaseInterval)
		// Abort first: an in-flight adoption involving the dead store
		// holds changeMu until its RPCs fail.
		co.abortAdoption(d.addr)
		co.wg.Add(1)
		go func(d deadStore) {
			defer co.wg.Done()
			co.failover(d.addr, d.version)
		}(d)
	}
}

// failover removes a dead store from the ring and promotes its
// replicas: survivors are fenced past the dead store's last reported
// version counter, the ring republishes without it, and the release
// makes each ring successor the owner of the arcs it already holds
// replicas for (internal/store promotes on install: banked tracker
// counts warm-start the engine, and new replica syncs restore R).
func (co *Coordinator) failover(addr string, version uint64) {
	co.changeMu.Lock()
	defer co.changeMu.Unlock()
	if !co.isLeaderNow() {
		return // deposed while queued; the new leader re-detects
	}
	// Re-check liveness: the store may have resumed heartbeating while
	// this goroutine waited out changeMu (a blip just over the lease,
	// or an aborted adoption unwinding). Removing it now would discard
	// a healthy shard.
	co.mu.Lock()
	if ls := co.leases[addr]; ls != nil && time.Since(ls.lastBeat) <= co.cfg.LeaseInterval {
		co.mu.Unlock()
		co.cfg.Logger.Printf("cluster: store %s recovered before failover; leaving it in the ring", addr)
		return
	}
	co.mu.Unlock()
	cur := co.RingInfo()
	pending, kind := co.pendingChange()
	member := false
	for _, n := range cur.Nodes {
		if n == addr {
			member = true
			break
		}
	}
	if !member {
		if pending == addr {
			// The dead store was mid-join: unwind the donors' forward
			// switches (no pulls — the store is gone; its acked writes
			// live on its candidate-ring replicas when R > 1).
			co.rollbackPending(addr, kind, false)
		}
		co.dropLease(addr)
		return
	}
	if len(cur.Nodes) == 1 {
		co.cfg.Logger.Printf("cluster: store %s is dead but is the last ring member; cannot fail over", addr)
		return // leave the lease failing so this logs once, not per tick
	}
	if co.cfg.Replicas <= 1 {
		// Without replication nobody else holds the dead store's keys:
		// auto-removing it would discard its shard. Flag it (freshctl
		// status shows SUSPECT) and leave the membership to the
		// operator; a restarted store re-arms detection via its next
		// heartbeat.
		co.cfg.Logger.Printf("cluster: store %s missed its lease, but replicas=1 — not removing it (its shard has no replica); drain or restart it", addr)
		return // failing stays set: one line per outage, not per tick
	}
	remaining := make([]string, 0, len(cur.Nodes)-1)
	for _, n := range cur.Nodes {
		if n != addr {
			remaining = append(remaining, n)
		}
	}
	cand := cur
	cand.Epoch = cur.Epoch + 1
	cand.Nodes = remaining
	if pending != "" {
		// Any half-done change is moot under the new membership; the
		// republish below retires its forward switches (and its ring
		// entry clears the latch). Its adopters may hold candidate
		// epoch cur+1 with a different node list, and equal-epoch
		// installs are skipped — burn an epoch so the failover ring
		// dominates every copy of it.
		co.cfg.Logger.Printf("cluster: abandoning pending %s of %s for the failover of %s", kind, pending, addr)
		cand.Epoch = cur.Epoch + 2
	}
	// Fence: survivors bump their version counters past the dead
	// store's last reported counter, so a promoted replica's future
	// writes order after everything the dead store served. (Replicated
	// writes already bumped the replica per-write; this covers the
	// detection window's tail.) Best effort — an unreachable survivor
	// catches up from its replicas' versions.
	if version > 0 {
		for _, n := range remaining {
			c := co.probeClient(n)
			if err := c.Restore(nil, nil, version); err != nil {
				co.cfg.Logger.Printf("cluster: fencing %s past %d: %v", n, version, err)
			}
			c.Close()
		}
	}
	ri, err := co.publish(cand)
	if err != nil {
		// Deposed mid-failover: the dead store stays published until
		// the new leader's own detector (its leases were graced, so it
		// re-measures the silence) removes it.
		co.cfg.Logger.Printf("cluster: failover of %s: %v", addr, err)
		return
	}
	co.mu.Lock()
	co.failovers++
	co.mu.Unlock()
	co.dropLease(addr)
	co.release(ri, remaining)
	co.cfg.Logger.Printf("cluster: failed over %s: ring epoch %d over %d stores",
		addr, ri.Epoch, len(ri.Nodes))
}

func (co *Coordinator) dropLease(addr string) {
	co.mu.Lock()
	delete(co.leases, addr)
	co.mu.Unlock()
}
