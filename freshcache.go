// Package freshcache is a library and runnable system for real-time cache
// freshness, reproducing "Revisiting Cache Freshness for Emerging
// Real-Time Applications" (HotNets '24).
//
// The paper's observation: TTLs keep cached data fresh by re-fetching or
// expiring on a timer, so their overhead grows as 1/T and becomes
// prohibitive at real-time staleness bounds (seconds and below). Reacting
// to writes instead — pushing an update or an invalidate from the store
// to the cache, batched once per bound T — costs only when data actually
// changes, and choosing between update and invalidate per key (from the
// measured ratio of writes to reads) beats either pure policy.
//
// This package is the facade over the implementation:
//
//   - the analytical cost model (Params, PolicyCosts) of §2–§3;
//   - the adaptive policy engine (Engine, Decider) of §3.2–§3.3 with its
//     E[W] sketches (NewExactTracker, NewCountMin, NewTopK);
//   - the discrete-event simulator (Simulate, SimTheory) behind the
//     paper's Figures 2, 3 and 5;
//   - synthetic workloads (NewPoisson, NewMix, NewMetaLike,
//     NewTwitterLike) standing in for the paper's production traces;
//   - a live TCP deployment of Figure 4 (NewStoreServer, NewCacheServer,
//     NewLoadBalancer, NewClient): a cache-aside cache cluster whose
//     store pushes batched invalidates/updates to subscribed caches. The
//     authoritative keyspace can be sharded across N store servers by a
//     consistent-hash ring (NewRing, NewShardedClient, the StoreAddrs
//     fields): each cache runs one epoch stream per shard and bounded
//     staleness holds per shard through disconnects and resyncs.
//
// # Quick start
//
//	store := freshcache.NewStoreServer(freshcache.StoreConfig{T: time.Second})
//	go store.ListenAndServe("127.0.0.1:7001")
//	cache, _ := freshcache.NewCacheServer(freshcache.CacheConfig{
//		StoreAddr: "127.0.0.1:7001", T: time.Second,
//	})
//	go cache.ListenAndServe("127.0.0.1:7101")
//
//	c := freshcache.NewClient("127.0.0.1:7101", freshcache.ClientOptions{})
//	c.Put("greeting", []byte("hello"))
//	v, _, _ := c.Get("greeting")
//
// See examples/ for complete programs and cmd/freshbench for the
// experiment harness that regenerates every table and figure in the
// paper.
package freshcache

import (
	"time"

	"freshcache/internal/cache"
	"freshcache/internal/client"
	"freshcache/internal/cluster"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/lb"
	"freshcache/internal/model"
	"freshcache/internal/ring"
	"freshcache/internal/simulate"
	"freshcache/internal/sketch"
	"freshcache/internal/store"
	"freshcache/internal/workload"
)

// ---- Analytical model (§2–§3) ----

// Params parameterizes the per-object analytical model: Poisson rate λ,
// read ratio r, staleness bound T, horizon T′ and the cost constants.
type Params = model.Params

// ModelCosts bundles C_F, C_S and their normalized forms for one policy.
type ModelCosts = model.Costs

// Policy identifies a freshness mechanism.
type Policy = model.Policy

// The seven policies of the paper's evaluation.
const (
	TTLExpiry  = model.TTLExpiry
	TTLPolling = model.TTLPolling
	Invalidate = model.Invalidate
	Update     = model.Update
	Adaptive   = model.Adaptive
	AdaptiveCS = model.AdaptiveCS
	Optimal    = model.Optimal
)

// ParsePolicy maps a policy name ("ttl-expiry", "adaptive", …) to a
// Policy.
func ParsePolicy(s string) (Policy, error) { return model.ParsePolicy(s) }

// ShouldUpdateEW is the pragmatic §3.3 decision rule: update iff
// E[W]·c_u < c_m + c_i.
func ShouldUpdateEW(ew, cu, ci, cm float64) bool { return model.ShouldUpdateEW(ew, cu, ci, cm) }

// ---- Cost model (Table 1, §3.3) ----

// Costs carries the c_m/c_i/c_u parameters with their Table 1 breakdown.
type Costs = costmodel.Costs

// Primitives holds the per-operation cost constants Table 1 composes.
type Primitives = costmodel.Primitives

// Bottleneck identifies the scarce resource used to derive costs.
type Bottleneck = costmodel.Bottleneck

// Recognized bottlenecks.
const (
	BottleneckNone    = costmodel.BottleneckNone
	BottleneckCPU     = costmodel.BottleneckCPU
	BottleneckNetwork = costmodel.BottleneckNetwork
	BottleneckDisk    = costmodel.BottleneckDisk
)

// DefaultSimCosts is the abstract cost vector used by the simulator when
// no bottleneck is profiled.
func DefaultSimCosts() Costs { return costmodel.DefaultSim() }

// FixedCosts pins the three cost parameters directly.
func FixedCosts(cm, ci, cu float64) Costs { return costmodel.Fixed(cm, ci, cu) }

// MeasuredPrimitives calibrates cost primitives on this machine.
func MeasuredPrimitives(iters int) Primitives { return costmodel.MeasuredPrimitives(iters) }

// ---- E[W] sketches (§3.3, Figure 6) ----

// Tracker estimates per-key E[W] from a read/write stream.
type Tracker = sketch.Tracker

// NewExactTracker returns the exact three-counter tracker.
func NewExactTracker() Tracker { return sketch.NewExact() }

// NewCountMin returns a count-min tracker with the given geometry.
func NewCountMin(width, depth int) (Tracker, error) { return sketch.NewCountMin(width, depth) }

// NewTopK returns the modified Top-K tracker: exact counters for the k
// hottest keys over a count-min tail.
func NewTopK(k, tailWidth, tailDepth int) (Tracker, error) {
	return sketch.NewTopK(k, tailWidth, tailDepth)
}

// HashKey folds a string key into the tracker identity space.
func HashKey(key string) uint64 { return sketch.Hash(key) }

// ---- Adaptive policy engine (§3.2–§3.3) ----

// Action is a per-key freshness decision.
type Action = core.Action

// Decisions an Engine can emit.
const (
	ActionNone       = core.ActionNone
	ActionInvalidate = core.ActionInvalidate
	ActionUpdate     = core.ActionUpdate
)

// Decision pairs a key with its decided action.
type Decision = core.Decision

// Decider applies the update-vs-invalidate rule over a Tracker.
type Decider = core.Decider

// EngineConfig configures the batching policy engine.
type EngineConfig = core.Config

// Engine is the store-side policy engine: it observes reads and writes,
// reports the writes that are due at once, buffers the rest, and emits
// batched decisions — every write within the staleness bound, no key twice
// within 15/16 of it.
type Engine = core.Engine

// NewEngine builds a policy engine.
func NewEngine(cfg EngineConfig) *Engine { return core.NewEngine(cfg) }

// Composites indexes many-to-many dependencies between cached composite
// objects (pages, joined views) and their backend part keys, fanning part
// decisions out to composite invalidations (the paper's §5 extension).
type Composites = core.Composites

// NewComposites returns an empty composite dependency index.
func NewComposites() *Composites { return core.NewComposites() }

// ---- Workloads ----

// Trace is an ordered request trace; Request one event in it.
type (
	Trace   = workload.Trace
	Request = workload.Request
	Op      = workload.Op
)

// Request operations.
const (
	OpRead  = workload.OpRead
	OpWrite = workload.OpWrite
)

// Workload generator specs.
type (
	PoissonSpec     = workload.PoissonSpec
	MixSpec         = workload.MixSpec
	MetaLikeSpec    = workload.MetaLikeSpec
	TwitterLikeSpec = workload.TwitterLikeSpec
)

// NewPoisson generates the §2.2 synthetic Poisson workload.
func NewPoisson(spec PoissonSpec) (*Trace, error) { return workload.Poisson(spec) }

// NewMix generates the §3.4 read-heavy/write-heavy blend.
func NewMix(spec MixSpec) (*Trace, error) { return workload.Mix(spec) }

// NewMetaLike generates the synthetic Meta-trace stand-in.
func NewMetaLike(spec MetaLikeSpec) (*Trace, error) { return workload.MetaLike(spec) }

// NewTwitterLike generates the synthetic Twitter-trace stand-in.
func NewTwitterLike(spec TwitterLikeSpec) (*Trace, error) { return workload.TwitterLike(spec) }

// StandardWorkload builds one of the four named evaluation workloads.
func StandardWorkload(name string, duration float64, seed uint64) (*Trace, error) {
	return workload.Standard(name, duration, seed)
}

// StandardWorkloadNames lists the evaluation workloads in paper order.
func StandardWorkloadNames() []string { return workload.StandardNames() }

// ---- Simulator (Figures 2, 3, 5) ----

// SimConfig configures one simulation run; SimResult is its metrics.
type (
	SimConfig = simulate.Config
	SimResult = simulate.Result
)

// Simulate runs one policy over one trace.
func Simulate(cfg SimConfig, tr *Trace) (SimResult, error) { return simulate.Run(cfg, tr) }

// SimTheory applies the analytical model to a whole trace, returning the
// normalized freshness and staleness costs the model predicts.
func SimTheory(tr *Trace, T float64, costs Costs, pl Policy) (cfNorm, csNorm float64, err error) {
	return simulate.Theory(tr, T, costs, pl)
}

// ---- Live system (Figure 4) ----

// StoreConfig configures the backing store server.
type StoreConfig = store.Config

// StoreServer is the live backing store with the batching flusher.
type StoreServer = store.Server

// NewStoreServer builds a store server.
func NewStoreServer(cfg StoreConfig) *StoreServer { return store.New(cfg) }

// CacheConfig configures a cache node.
type CacheConfig = cache.Config

// CacheServer is a live cache node.
type CacheServer = cache.Server

// NewCacheServer builds a cache node.
func NewCacheServer(cfg CacheConfig) (*CacheServer, error) { return cache.New(cfg) }

// LBConfig configures the load balancer.
type LBConfig = lb.Config

// LoadBalancer routes reads to caches and writes to the store.
type LoadBalancer = lb.Server

// NewLoadBalancer builds a load balancer.
func NewLoadBalancer(cfg LBConfig) (*LoadBalancer, error) { return lb.New(cfg) }

// ClientOptions configures a Client; Client is the protocol client. It
// speaks one multiplexed pipelined transport: concurrent requests share
// ClientOptions.MaxConns connections and responses demux by sequence
// number.
type (
	ClientOptions = client.Options
	Client        = client.Client
)

// NewClient builds a client for a freshcache node address.
func NewClient(addr string, opts ClientOptions) *Client { return client.New(addr, opts) }

// MGetResult is one key's outcome inside a batched read
// (Client.MGet / ShardedClient.MGet); MPutResult one key's outcome
// inside a batched write. Batches report per-key status — one key's
// miss or failure never fails its batch-mates.
type (
	MGetResult = client.MGetResult
	MPutResult = client.MPutResult
)

// ErrNotFound reports a missing key from Client.Get.
var ErrNotFound = client.ErrNotFound

// ---- Sharded authority (consistent-hash ring) ----

// Ring is the immutable consistent-hash ring that partitions the
// keyspace across store shards (and spreads read affinity across
// caches).
type Ring = ring.Ring

// DefaultVirtualNodes is the per-node virtual point count used when a
// ring is built with virtualNodes <= 0.
const DefaultVirtualNodes = ring.DefaultVirtualNodes

// NewRing builds a consistent-hash ring over nodes with virtualNodes
// points per node (<= 0 uses DefaultVirtualNodes).
func NewRing(nodes []string, virtualNodes int) (*Ring, error) {
	return ring.New(nodes, virtualNodes)
}

// ShardedClient routes key-addressed requests across a ring of store
// shards and fans aggregate requests out to all of them. Its ring is
// swappable at runtime (SwapRing) for dynamic cluster membership.
type ShardedClient = client.Sharded

// ShardError annotates a per-shard failure inside a sharded fan-out
// call (ShardedClient.Stats / Ping return partial results plus these).
type ShardError = client.ShardError

// NewShardedClient builds a sharded client over addrs.
func NewShardedClient(addrs []string, virtualNodes int, opts ClientOptions) (*ShardedClient, error) {
	return client.NewSharded(addrs, virtualNodes, opts)
}

// ---- Dynamic cluster membership (coordinator control plane) ----

// CoordinatorConfig configures the cluster coordinator.
type CoordinatorConfig = cluster.Config

// Coordinator is the control-plane node that versions the store ring
// (monotonic ring epochs), admits store joins and drains at runtime,
// and orchestrates the key-range handoff so the cluster reshards live
// while the staleness bound T keeps holding end to end.
type Coordinator = cluster.Coordinator

// NewCoordinator builds a coordinator over an initial store list.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) { return cluster.New(cfg) }

// RingInfo is a versioned store-ring snapshot as published by the
// coordinator.
type RingInfo = client.RingInfo

// FetchRing fetches the coordinator's published ring, retrying until
// the timeout.
func FetchRing(coordAddr string, timeout time.Duration) (RingInfo, error) {
	return cluster.FetchRing(coordAddr, timeout)
}

// CoordClient is a coordinator-group client: it takes a comma-separated
// multi-address coordinator list, follows leader redirects for
// mutations (Join, Drain, Heartbeat) and rotates past unreachable
// members for reads — a replicated control plane behaves like one
// logical endpoint.
type CoordClient = cluster.CoordClient

// NewCoordClient builds a coordinator-group client for a
// comma-separated address list.
func NewCoordClient(addrSpec string, opts ClientOptions) *CoordClient {
	return cluster.NewCoordClient(addrSpec, opts)
}

// SplitCoordAddrs parses a comma-separated coordinator address list —
// the form every -cluster flag accepts.
func SplitCoordAddrs(spec string) []string { return cluster.SplitAddrs(spec) }

// RingWatcher polls the coordinator group and delivers newly published
// rings in epoch order, rotating past unreachable coordinators.
type RingWatcher = cluster.Watcher

// NewRingWatcher builds a watcher invoking onChange for every ring
// published after sinceEpoch.
func NewRingWatcher(coordAddr string, interval time.Duration, sinceEpoch uint64, onChange func(RingInfo)) *RingWatcher {
	return cluster.NewWatcher(coordAddr, interval, sinceEpoch, onChange)
}
