package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/proto"
	"freshcache/internal/ring"
)

// ResolveStoreAddrs folds the two store-address config forms — a single
// address or a shard list — into one list. Exactly one form must be
// set; the cache, the LB, and the cmds all share this rule.
func ResolveStoreAddrs(addr string, addrs []string) ([]string, error) {
	switch {
	case len(addrs) == 0 && addr == "":
		return nil, errors.New("a store address is required")
	case len(addrs) > 0 && addr != "":
		return nil, errors.New("set a single store address or a shard list, not both")
	case len(addrs) == 0:
		return []string{addr}, nil
	default:
		return addrs, nil
	}
}

// ShardError annotates a per-shard failure inside a fan-out call.
type ShardError struct {
	Shard int
	Addr  string
	Err   error
}

// Error implements error.
func (e ShardError) Error() string {
	return fmt.Sprintf("client: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the underlying transport or server error.
func (e ShardError) Unwrap() error { return e.Err }

// shardView is one immutable routing generation: the ring and the
// per-node clients aligned with it. Key-addressed calls load exactly
// one view, so a concurrent ring swap can never route a key with one
// generation's ring and another generation's client list.
type shardView struct {
	epoch   uint64
	r       *ring.Ring
	clients []*Client
}

// Sharded routes requests across a consistent-hash ring of freshcache
// nodes — the client-side view of a sharded authority (or a cache
// fleet): key-addressed calls go to the ring owner, aggregate calls fan
// out to every node. The ring is swappable at runtime (SwapRing): under
// dynamic cluster membership the routing generation is replaced
// atomically when the coordinator publishes a new ring epoch, reusing
// the live connections of every node present in both generations.
type Sharded struct {
	opts Options

	mu     sync.Mutex // serializes SwapRing and Close
	closed bool
	v      atomic.Pointer[shardView]

	// refreshMu single-flights ring refreshes triggered by failed
	// key-addressed calls (SetRefresher); lastRefresh rate-limits them.
	refreshMu   sync.Mutex
	refresher   func() (RingInfo, bool)
	lastRefresh time.Time
	failovers   atomic.Uint64
}

// NewSharded builds a sharded client over addrs with virtualNodes ring
// points per node (<= 0 uses ring.DefaultVirtualNodes). All nodes share
// opts.
func NewSharded(addrs []string, virtualNodes int, opts Options) (*Sharded, error) {
	r, err := ring.New(addrs, virtualNodes)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	view := &shardView{r: r, clients: make([]*Client, r.Len())}
	for i, addr := range r.Nodes() {
		view.clients[i] = New(addr, opts)
	}
	s := &Sharded{opts: opts}
	s.v.Store(view)
	return s, nil
}

// swapCloseGrace is how long a node removed from the ring keeps its
// client open after a swap: requests that loaded the previous routing
// generation may still be in flight on it, and a drained store keeps
// serving (and forwarding) exactly for this window — closing eagerly
// would fail them for no reason.
const swapCloseGrace = 5 * time.Second

// SwapRing atomically replaces the routing ring with a newer epoch's
// node list: clients for continuing nodes are reused (their connections
// stay live), clients for added nodes are created lazily, and clients
// for removed nodes are closed a grace period after the swap. A swap
// to an epoch not newer than the current one is a no-op — watchers may
// deliver duplicates or reorder.
func (s *Sharded) SwapRing(epoch uint64, addrs []string, virtualNodes int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cur := s.v.Load()
	if epoch <= cur.epoch {
		return nil
	}
	r, err := ring.New(addrs, virtualNodes)
	if err != nil {
		return fmt.Errorf("client: swapping ring: %w", err)
	}
	old := make(map[string]*Client, len(cur.clients))
	for i, c := range cur.clients {
		old[cur.r.Node(i)] = c
	}
	view := &shardView{epoch: epoch, r: r, clients: make([]*Client, r.Len())}
	for i, addr := range r.Nodes() {
		if c, ok := old[addr]; ok {
			view.clients[i] = c
			delete(old, addr)
		} else {
			view.clients[i] = New(addr, s.opts)
		}
	}
	s.v.Store(view)
	for _, c := range old { // nodes no longer in the ring
		time.AfterFunc(swapCloseGrace, func() { c.Close() })
	}
	return nil
}

// Epoch returns the ring epoch of the current routing generation (0
// until the first swap on a statically configured ring).
func (s *Sharded) Epoch() uint64 { return s.v.Load().epoch }

// Ring exposes the current routing ring (shared, read-only).
func (s *Sharded) Ring() *ring.Ring { return s.v.Load().r }

// Len returns the number of shards.
func (s *Sharded) Len() int { return len(s.v.Load().clients) }

// Owner returns the shard index owning key.
func (s *Sharded) Owner(key string) int { return s.v.Load().r.Owner(key) }

// Shard returns the per-node client for shard i.
func (s *Sharded) Shard(i int) *Client { return s.v.Load().clients[i] }

// For returns the client owning key.
func (s *Sharded) For(key string) *Client {
	v := s.v.Load()
	return v.clients[v.r.Owner(key)]
}

// SetRefresher installs fn as the on-demand ring source consulted when
// a key-addressed call fails at the transport level (the owner may have
// just crashed): before surfacing the error, the sharded client
// refreshes its ring through fn and — if the key's owner changed —
// retries once against the promoted owner. Without a refresher, owner
// failures surface until a watcher delivers the next ring epoch.
func (s *Sharded) SetRefresher(fn func() (RingInfo, bool)) {
	s.refreshMu.Lock()
	s.refresher = fn
	s.refreshMu.Unlock()
}

// Failovers returns how many key-addressed calls were retried against a
// new owner after an on-demand ring refresh.
func (s *Sharded) Failovers() uint64 { return s.failovers.Load() }

// refreshMinGap rate-limits on-demand ring refreshes: a storm of
// failures against a dead owner coalesces into at most one coordinator
// poll per gap (concurrent failers piggyback on the in-flight refresh).
const refreshMinGap = 100 * time.Millisecond

// refreshRing fetches a possibly newer ring through the refresher and
// swaps to it. It returns true when a retry is worthwhile — the ring
// was just (re)fetched, here or by a concurrent failer.
func (s *Sharded) refreshRing() bool {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if s.refresher == nil {
		return false
	}
	if time.Since(s.lastRefresh) < refreshMinGap {
		return true // a concurrent failure just refreshed; re-check the view
	}
	ri, ok := s.refresher()
	// Stamped once the fetch is over: the failers that queued behind a slow
	// one piggyback on its result, they do not each repeat it.
	s.lastRefresh = time.Now()
	if !ok {
		return false
	}
	return s.SwapRing(ri.Epoch, ri.Nodes, ri.VirtualNodes) == nil
}

// failoverWorthy reports whether err is a transport-level failure (the
// owner may be down) rather than a server answer or a missing key.
func failoverWorthy(err error) bool {
	return err != nil && !errors.Is(err, ErrNotFound) &&
		!errors.Is(err, ErrServer) && !errors.Is(err, ErrClosed)
}

// keyCall runs one key-addressed exchange with owner-failover retry:
// when the owner's transport fails and a ring refresh reroutes the key,
// the call is retried once against the new owner. (For a PUT the failed
// attempt may have reached the old owner's wire; re-running it against
// the promoted owner re-applies the same value under a newer version,
// which the version-ordered stores and caches absorb.)
func (s *Sharded) keyCall(key string, call func(*Client) error) error {
	c := s.For(key)
	err := call(c)
	if c2 := s.reroute(key, c, err); c2 != nil {
		return call(c2)
	}
	return err
}

// reroute is the failover rule, stated once — keyCall, FillRetry and a
// scattered request's failed leg (leg.failover) all retry through it. The
// attempt on failed ended in err: if err is a transport failure (the owner
// may be down), the ring is refreshed, and it returns key's owner when that
// is no longer failed — the one client worth a retry. It returns nil when
// the error stands: a retry would reach the same node and the same failure.
func (s *Sharded) reroute(key string, failed *Client, err error) *Client {
	if !failoverWorthy(err) || !s.refreshRing() {
		return nil
	}
	c := s.For(key)
	if c == failed {
		return nil
	}
	s.failovers.Add(1)
	return c
}

// Get fetches key from its owning shard.
func (s *Sharded) Get(key string) (value []byte, version uint64, err error) {
	err = s.keyCall(key, func(c *Client) error {
		value, version, err = c.Get(key)
		return err
	})
	return value, version, err
}

// FillRetry is the failover half of a fill started with
// For(key).FillAsync — which has no goroutine to block through a ring
// refresh — and handed the transport error err by the client failed: the
// completion calls it on a goroutine of its own. It refreshes the ring and
// fills from key's new owner if there is one; otherwise err stands.
func (s *Sharded) FillRetry(failed *Client, key string, traceID uint64, err error) ([]byte, uint64, *proto.Trace, error) {
	c := s.reroute(key, failed, err)
	if c == nil {
		return nil, 0, nil, err
	}
	return c.get(proto.MsgFill, key, traceID)
}

// Put writes key to its owning shard.
func (s *Sharded) Put(key string, value []byte) (version uint64, err error) {
	err = s.keyCall(key, func(c *Client) error {
		version, err = c.Put(key, value)
		return err
	})
	return version, err
}

// ReadReport partitions reports by ring owner and ships each slice to
// its shard, so every store's policy engine sees exactly the read
// traffic for the keys it owns. The first error is returned after all
// shards are attempted.
func (s *Sharded) ReadReport(reports []proto.ReadReport) error {
	v := s.v.Load()
	if len(v.clients) == 1 {
		return v.clients[0].ReadReport(reports)
	}
	byShard := make([][]proto.ReadReport, len(v.clients))
	for _, rp := range reports {
		i := v.r.Owner(rp.Key)
		byShard[i] = append(byShard[i], rp)
	}
	var firstErr error
	for i, part := range byShard {
		if len(part) == 0 {
			continue
		}
		if err := v.clients[i].ReadReport(part); err != nil && firstErr == nil {
			firstErr = ShardError{Shard: i, Addr: v.r.Node(i), Err: err}
		}
	}
	return firstErr
}

// Ping probes every shard and returns one ShardError per unreachable
// shard (nil when the whole fleet answered). A down shard does not
// mask the health of the others.
func (s *Sharded) Ping() []ShardError {
	v := s.v.Load()
	var errs []ShardError
	for i, c := range v.clients {
		if err := c.Ping(); err != nil {
			errs = append(errs, ShardError{Shard: i, Addr: v.r.Node(i), Err: err})
		}
	}
	return errs
}

// Stats fetches and sums counter maps across all shards. A down shard
// does not fail the aggregate: its error is reported in the ShardError
// slice and the partial sum over the reachable shards is returned,
// with a "shards_reporting" entry recording how many contributed.
func (s *Sharded) Stats() (map[string]uint64, []ShardError) {
	v := s.v.Load()
	total := make(map[string]uint64)
	var errs []ShardError
	reporting := uint64(0)
	for i, c := range v.clients {
		m, err := c.Stats()
		if err != nil {
			errs = append(errs, ShardError{Shard: i, Addr: v.r.Node(i), Err: err})
			continue
		}
		reporting++
		for k, val := range m {
			total[k] += val
		}
	}
	total["shards_reporting"] = reporting
	return total, errs
}

// Close tears down every shard's pool.
func (s *Sharded) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, c := range s.v.Load().clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
