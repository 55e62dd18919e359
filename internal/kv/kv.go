// Package kv provides the in-memory storage engines used by the live
// freshcache nodes:
//
//   - Cache: a sharded, capacity-bounded LRU map with per-entry version,
//     staleness flag and optional expiry deadline — the cache node's
//     resident set.
//   - Authority: the backing store's unbounded versioned map with a
//     monotone per-store version counter and write timestamps.
//
// Both are safe for concurrent use. Sharding keeps lock contention off
// the hot read path; versions order update pushes against miss fills so
// a stale fill can never clobber a newer pushed value.
package kv

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/sketch"
)

// numShards is a power of two so shard selection is a mask.
const numShards = 64

// Entry is one cached object.
type Entry struct {
	Value []byte
	// Version is the store version this copy reflects.
	Version uint64
	// Stale marks the copy invalidated; reads must treat it as a miss.
	Stale bool
	// ExpireAt, when nonzero, is a hard freshness deadline (the TTL
	// fallback used after subscription gaps); reads past it are misses.
	ExpireAt time.Time
	// FreshAt is when this copy was last confirmed consistent with the
	// authority (fill install or pushed update) — the origin of the
	// entry's age for freshness telemetry. Stamped by Put/Update when
	// zero.
	FreshAt time.Time
}

// fresh reports whether the entry may be served at time now.
func (e *Entry) fresh(now time.Time) bool {
	if e.Stale {
		return false
	}
	return e.ExpireAt.IsZero() || now.Before(e.ExpireAt)
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*node
	// Intrusive LRU list; head is most recent.
	head, tail *node
	capacity   int // per-shard
	evictions  uint64
}

type node struct {
	key        string
	e          Entry
	prev, next *node
}

// Cache is the sharded LRU described in the package comment.
type Cache struct {
	shards [numShards]cacheShard
}

// NewCache builds a cache bounded to roughly capacity objects (rounded up
// to a multiple of the shard count). capacity <= 0 means unbounded.
func NewCache(capacity int) *Cache {
	c := &Cache{}
	per := 0
	if capacity > 0 {
		per = (capacity + numShards - 1) / numShards
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*node)
		c.shards[i].capacity = per
	}
	return c
}

// stackBatch is the batch size up to which the batch operations keep their
// keys' stripe numbers on the stack, so none of them allocates for it.
const stackBatch = 64

// stripes returns the stripe of every key, appended to sids, and the set
// of stripes the batch touches.
func stripes(keys []string, sids []uint8) ([]uint8, [numShards]bool) {
	var occupied [numShards]bool
	for _, k := range keys {
		sid := uint8(sketch.Hash(k) & (numShards - 1))
		sids = append(sids, sid)
		occupied[sid] = true
	}
	return sids, occupied
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[sketch.Hash(key)&(numShards-1)]
}

// Get returns a copy of the entry and whether it was fresh at now.
// found reports residency (fresh or stale); fresh implies found.
func (c *Cache) Get(key string, now time.Time) (e Entry, found, fresh bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[key]
	if n == nil {
		return Entry{}, false, false
	}
	s.touch(n)
	return n.e, true, n.e.fresh(now)
}

// GetBatch looks up every key in one pass over the shard set: keys are
// visited grouped by shard with one lock acquisition per distinct
// shard, and report is called exactly once per key with its index in
// keys (in shard-grouped order, not input order). The reported Entry is
// a copy, like Get's. This is the batch serve path's amortization: a
// 32-key MGet pays at most one lock per occupied shard instead of 32.
func (c *Cache) GetBatch(keys []string, now time.Time, report func(i int, e Entry, found, fresh bool)) {
	var buf [stackBatch]uint8
	sids, occupied := stripes(keys, buf[:0])
	for sid := 0; sid < numShards; sid++ {
		if !occupied[sid] {
			continue
		}
		s := &c.shards[sid]
		s.mu.Lock()
		for i, k := range keys {
			if int(sids[i]) != sid {
				continue
			}
			n := s.m[k]
			if n == nil {
				report(i, Entry{}, false, false)
				continue
			}
			s.touch(n)
			report(i, n.e, true, n.e.fresh(now))
		}
		s.mu.Unlock()
	}
}

// Put inserts or overwrites the entry for key, evicting LRU residents of
// the same shard if needed. It returns false (and does not store) when
// the resident copy has a version strictly newer than e.Version —
// protecting a pushed update from being clobbered by a slower miss fill.
func (c *Cache) Put(key string, e Entry) bool {
	if e.FreshAt.IsZero() {
		e.FreshAt = time.Now()
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.m[key]; n != nil {
		if n.e.Version > e.Version {
			return false
		}
		if n.e.Version == e.Version && n.e.ExpireAt.After(time.Now()) &&
			(e.ExpireAt.IsZero() || n.e.ExpireAt.Before(e.ExpireAt)) {
			// An equal-version fill carries no newer data than the
			// resident copy, so it must not relax a hard staleness
			// deadline already stamped on it (the disconnect fallback or
			// a ring-swap handoff): that deadline may be the only
			// freshness signal left for this entry. A deadline already
			// in the past is different — it has done its job (the stale
			// copy was refetched from the authority), and preserving it
			// would make the key permanently uncacheable, thrashing as
			// a stale miss on every read.
			e.ExpireAt = n.e.ExpireAt
		}
		n.e = e
		s.touch(n)
		return true
	}
	var n *node
	if s.capacity > 0 && len(s.m) >= s.capacity {
		// The evicted victim's list node becomes the new entry's: readers
		// only ever get copies of n.e, so nothing outside the lock holds it.
		n = s.tail
		s.unlink(n)
		delete(s.m, n.key)
		s.evictions++
		n.key, n.e = key, e
	} else {
		n = &node{key: key, e: e}
	}
	s.m[key] = n
	s.pushFront(n)
	return true
}

// Update applies a pushed update: it overwrites value and version only if
// the key is resident (the paper's update semantics: "does nothing if the
// object is not in the cache") and the version is not older than the
// resident one. It reports whether the key was resident. value is only
// read: the copy that becomes the entry is made here, once both checks
// have passed — an update for a key that is not resident, or that is out
// of date, costs no allocation.
func (c *Cache) Update(key string, value []byte, version uint64) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[key]
	if n == nil {
		return false
	}
	if version >= n.e.Version {
		n.e = Entry{Value: bytes.Clone(value), Version: version, FreshAt: time.Now()}
	}
	return true
}

// Invalidate marks the resident copy stale; it reports residency.
func (c *Cache) Invalidate(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[key]
	if n == nil {
		return false
	}
	n.e.Stale = true
	return true
}

// Delete removes key; it reports whether it was resident.
func (c *Cache) Delete(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[key]
	if n == nil {
		return false
	}
	s.unlink(n)
	delete(s.m, key)
	return true
}

// InvalidateAll marks every resident entry stale — the conservative
// resynchronization after a lost batch epoch: every future read refetches,
// so bounded staleness is restored at the price of one miss storm.
func (c *Cache) InvalidateAll() {
	c.InvalidateOwned(nil)
}

// InvalidateOwned marks stale every resident entry whose key satisfies
// owned (nil means all) and returns how many it touched. This is the
// shard-scoped resynchronization: when one authority shard's epoch
// stream gaps, only the keys that shard owns lose their freshness
// guarantee — entries owned by healthy shards keep serving.
func (c *Cache) InvalidateOwned(owned func(key string) bool) int {
	touched := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, n := range s.m {
			if owned == nil || owned(k) {
				n.e.Stale = true
				touched++
			}
		}
		s.mu.Unlock()
	}
	return touched
}

// ExpireAllBy sets a hard freshness deadline on every resident entry
// that does not already have an earlier one — the TTL fallback a cache
// engages when its subscription to the store drops: data already resident
// was fresh at disconnect time, so it may be served until disconnect+T
// and must be treated as a miss afterwards.
func (c *Cache) ExpireAllBy(at time.Time) {
	c.ExpireOwnedBy(at, nil)
}

// ExpireOwnedBy sets the hard freshness deadline at on every resident
// entry whose key satisfies owned (nil means all) that does not already
// carry an earlier one, returning how many it touched — the shard-scoped
// disconnect fallback: losing one authority shard's push channel bounds
// only that shard's keys, the rest stay under live push freshness.
func (c *Cache) ExpireOwnedBy(at time.Time, owned func(key string) bool) int {
	touched := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, n := range s.m {
			if owned != nil && !owned(k) {
				continue
			}
			if n.e.ExpireAt.IsZero() || n.e.ExpireAt.After(at) {
				n.e.ExpireAt = at
				touched++
			}
		}
		s.mu.Unlock()
	}
	return touched
}

// SetExpiry overwrites the resident entry's hard deadline.
func (c *Cache) SetExpiry(key string, at time.Time) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[key]
	if n == nil {
		return false
	}
	n.e.ExpireAt = at
	return true
}

// Len returns the number of resident entries (including stale ones).
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// Evictions returns the cumulative LRU eviction count.
func (c *Cache) Evictions() uint64 {
	var total uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.evictions
		s.mu.Unlock()
	}
	return total
}

func (s *cacheShard) touch(n *node) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *cacheShard) pushFront(n *node) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *cacheShard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Authority is the backing store's authoritative versioned map. Like
// the Cache it is striped numShards ways so the serving path's reads
// and the write path's installs contend per-stripe instead of on one
// global RWMutex; the monotone version counter is an atomic shared by
// all stripes.
type Authority struct {
	version atomic.Uint64
	shards  [numShards]authShard
}

type authShard struct {
	mu sync.RWMutex
	m  map[string]authEntry
}

type authEntry struct {
	value   []byte
	version uint64
	written time.Time
}

// NewAuthority returns an empty authority.
func NewAuthority() *Authority {
	a := &Authority{}
	for i := range a.shards {
		a.shards[i].m = make(map[string]authEntry)
	}
	return a
}

func (a *Authority) shard(key string) *authShard {
	return &a.shards[sketch.Hash(key)&(numShards-1)]
}

// Put stores value under key and returns the assigned version (monotone
// across all keys, so any two writes are ordered). The counter is drawn
// under the shard lock so two writes to the same key install in version
// order.
func (a *Authority) Put(key string, value []byte, now time.Time) uint64 {
	cp := make([]byte, len(value))
	copy(cp, value)
	s := a.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v := a.version.Add(1)
	s.m[key] = authEntry{value: cp, version: v, written: now}
	return v
}

// Get returns a copy of the value and its version for key. The copy is
// the caller's to mutate; use GetView on paths that only read.
func (a *Authority) Get(key string) (value []byte, version uint64, ok bool) {
	s := a.shard(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	return append([]byte(nil), e.value...), e.version, true
}

// GetView returns the authority's own value buffer without copying.
// Entries are replaced, never mutated in place, so the view is a stable
// snapshot of that version — but it MUST be treated as immutable: a
// caller mutation would corrupt the stored value. The serving path and
// the flusher read through this; anything that writes into the slice it
// got must use Get.
func (a *Authority) GetView(key string) (value []byte, version uint64, ok bool) {
	s := a.shard(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	return e.value, e.version, true
}

// GetViewAged is GetView plus the entry's write time, for serve-path
// freshness telemetry; one lookup instead of GetView+LastWrite. The
// value carries GetView's immutability contract.
func (a *Authority) GetViewAged(key string) (value []byte, version uint64, written time.Time, ok bool) {
	s := a.shard(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, time.Time{}, false
	}
	return e.value, e.version, e.written, true
}

// GetViewAgedBatch is GetViewAged over a key set with one RLock
// acquisition per distinct stripe: keys are visited grouped by stripe
// and report is called exactly once per key with its index in keys (in
// stripe-grouped order, not input order). Values carry GetView's
// immutability contract.
func (a *Authority) GetViewAgedBatch(keys []string, report func(i int, value []byte, version uint64, written time.Time, ok bool)) {
	var buf [stackBatch]uint8
	sids, occupied := stripes(keys, buf[:0])
	for sid := 0; sid < numShards; sid++ {
		if !occupied[sid] {
			continue
		}
		s := &a.shards[sid]
		s.mu.RLock()
		for i, k := range keys {
			if int(sids[i]) != sid {
				continue
			}
			e, ok := s.m[k]
			if !ok {
				report(i, nil, 0, time.Time{}, false)
				continue
			}
			report(i, e.value, e.version, e.written, ok)
		}
		s.mu.RUnlock()
	}
}

// PutBatch stores values[i] under keys[i] for every i, grouping by
// stripe so the batch pays one lock acquisition (and one version draw
// per key, in input order within a stripe) per distinct stripe instead
// of per key, and writes each assigned version into versions[i]. Values
// are copied, as in Put. A duplicate key keeps the later op's value —
// version order within the stripe matches input order, so the
// higher-indexed write carries the higher version.
func (a *Authority) PutBatch(keys []string, values [][]byte, versions []uint64, now time.Time) {
	var buf [stackBatch]uint8
	sids, occupied := stripes(keys, buf[:0])
	for sid := 0; sid < numShards; sid++ {
		if !occupied[sid] {
			continue
		}
		s := &a.shards[sid]
		s.mu.Lock()
		for i, k := range keys {
			if int(sids[i]) != sid {
				continue
			}
			cp := make([]byte, len(values[i]))
			copy(cp, values[i])
			v := a.version.Add(1)
			s.m[k] = authEntry{value: cp, version: v, written: now}
			versions[i] = v
		}
		s.mu.Unlock()
	}
}

// Version returns the current global version counter. It may run ahead
// of the last installed write (a concurrent Put draws its version
// before releasing the shard lock), which is the safe direction for
// every consumer: fencing past an over-reported counter only orders
// survivors further ahead.
func (a *Authority) Version() uint64 {
	return a.version.Load()
}

// BumpVersion raises the global version counter to at least v. During
// a migration the adopting store bumps past the donor's counter before
// accepting writes for the moved keys, so its future versions order
// after every version a cache may already hold for them.
func (a *Authority) BumpVersion(v uint64) {
	for {
		cur := a.version.Load()
		if cur >= v || a.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MigEntry is one key's migratable state: the value slice is the
// authority's own immutable copy (entries are replaced, never mutated
// in place), so holding it across the migration stream is safe.
type MigEntry struct {
	Key     string
	Value   []byte
	Version uint64
}

// SnapshotOwned returns the entries whose key satisfies owns — the
// moved-range snapshot a donor streams to the adopting store. Each
// stripe is locked in turn; exhaustiveness across concurrent writes is
// the caller's concern (the store brackets snapshots with its cluster
// lock, as before).
func (a *Authority) SnapshotOwned(owns func(key string) bool) []MigEntry {
	var out []MigEntry
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.RLock()
		for k, e := range s.m {
			if owns(k) {
				out = append(out, MigEntry{Key: k, Value: e.value, Version: e.version})
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// Restore installs a migrated entry, keeping its donor-assigned version
// and raising the global counter to at least that version. It refuses
// to clobber an entry with an equal or newer version — a write the
// adopter accepted itself (via forwarding) always beats migrated state,
// which by protocol order is older. It reports whether the entry was
// installed.
func (a *Authority) Restore(key string, value []byte, version uint64, now time.Time) bool {
	a.BumpVersion(version)
	s := a.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok && e.version >= version {
		return false
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	s.m[key] = authEntry{value: cp, version: version, written: now}
	return true
}

// ReleaseNotOwned deletes every key that does not satisfy owns and
// returns how many were dropped — the donor's cleanup once a new ring
// epoch is published and the moved range is served elsewhere.
func (a *Authority) ReleaseNotOwned(owns func(key string) bool) int {
	dropped := 0
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		for k := range s.m {
			if !owns(k) {
				delete(s.m, k)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// LastWrite returns when key was last written.
func (a *Authority) LastWrite(key string) (time.Time, bool) {
	s := a.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[key]
	return e.written, ok
}

// Len returns the number of stored keys.
func (a *Authority) Len() int {
	total := 0
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.RLock()
		total += len(s.m)
		s.mu.RUnlock()
	}
	return total
}
