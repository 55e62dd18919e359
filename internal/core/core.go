// Package core implements the paper's primary contribution: the adaptive,
// per-object freshness policy that reacts to writes with either an update
// (push the new value to the cache) or an invalidate (mark the cached copy
// stale), chosen per key from the measured ratio of writes to reads.
//
// The decision rule (§3.2–§3.3) is
//
//	update   iff  E[W]·c_u < c_m + c_i
//
// where E[W] is the expected number of writes between consecutive reads of
// the key (estimated by a sketch.Tracker), c_u is the cost of an update,
// c_i of an invalidate, and c_m of a cache miss. A run of E[W] writes
// costs E[W]·c_u under updating, versus a single invalidate plus one
// eventual miss (c_i + c_m) under invalidation.
//
// Two layers are exported:
//
//   - Decider: the stateless-per-call decision rule over a Tracker, used
//     directly by the simulator (uint64 key identities).
//   - Engine: a concurrency-safe, string-keyed batching engine for live
//     deployments: written keys are buffered, already-invalidated keys
//     are deduplicated, and decisions are emitted in batches the store
//     pushes to its caches (Figure 4).
//
// The engine flushes on the leading edge, with a cooldown. The caller
// divides the staleness bound T into Slices slices. A write that makes a
// key due now — newly dirty, read before, not pushed during the last Slices
// slices — says so (ObserveWritesAt), and the caller calls FlushSlice at
// once, mid-slice: the key goes out and starts cooling. A write to a
// cooling key, or to one nobody has read yet (no cache can hold it, and a
// bulk load should not jump the queue), is held until the boundary Slices
// slices after that push — for the unread key, after the last flush — and
// goes out there once, with whatever was written meanwhile. The caller owes
// the engine a FlushSlice whenever a write asks for one, and at every
// boundary while Pending. Then every write is pushed at most T after it was
// observed, strictly; a cooldown starts mid-slice and ends at a boundary,
// so a key is pushed at most once per 15/16·T — not once per T; and a write
// to a key that is read, and written less than once per T, is pushed as
// soon as the caller gets to it.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"freshcache/internal/costmodel"
	"freshcache/internal/sketch"
)

// Action is a freshness decision for one written key.
type Action int

// Possible decisions. ActionNone means the key needs no message this
// interval (it is already invalidated in the cache).
const (
	ActionNone Action = iota
	ActionInvalidate
	ActionUpdate
)

// String returns "none", "invalidate" or "update".
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionInvalidate:
		return "invalidate"
	case ActionUpdate:
		return "update"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decider applies the §3.2/§3.3 decision rules over a Tracker.
// Decider is not safe for concurrent use.
type Decider struct {
	// Tracker estimates per-key E[W]; required.
	Tracker sketch.Tracker
	// Costs supplies c_m, c_i, c_u. Cm = +Inf forces updates always
	// (the read-latency-first mode of §3.3).
	Costs costmodel.Costs
	// SLO, when positive, is the maximum tolerable stale-read miss ratio
	// C′_S. Keys whose estimated write fraction 1−r̂ exceeds the SLO are
	// updated even when invalidation wins on throughput (§3.2).
	SLO float64
}

// ObserveRead records a read of key into the tracker.
func (d *Decider) ObserveRead(key uint64) { d.Tracker.ObserveRead(key) }

// ObserveReadN records n consecutive reads of key into the tracker.
func (d *Decider) ObserveReadN(key, n uint64) { d.Tracker.ObserveReadN(key, n) }

// ObserveWrite records a write of key into the tracker.
func (d *Decider) ObserveWrite(key uint64) { d.Tracker.ObserveWrite(key) }

// Update reports whether a write to key should be propagated as an update
// (true) or an invalidate (false).
func (d *Decider) Update(key uint64) bool {
	if math.IsInf(d.Costs.Cm, 1) {
		return true
	}
	ew := d.Tracker.EW(key)
	if ew*d.Costs.Cu < d.Costs.Cm+d.Costs.Ci {
		return true
	}
	if d.SLO > 0 {
		// Estimate the key's write fraction; invalidation's limiting
		// stale-miss ratio is 1−r̂ (§3.2), so breach of the SLO forces
		// updates regardless of throughput cost.
		r, w := d.Tracker.Reads(key), d.Tracker.Writes(key)
		if r+w > 0 {
			writeFrac := float64(w) / float64(r+w)
			if writeFrac > d.SLO {
				return true
			}
		}
	}
	return false
}

// Decision pairs a key with the action chosen for it at a flush.
type Decision struct {
	Key    string
	Action Action
	Since  int64 // stamp of the oldest write covered (see ObserveWriteAt)
	Held   bool  // the key was held for a cooldown first
}

// Slices is the number of flush slices per staleness bound T, and so the
// length of a pushed key's cooldown.
const Slices = 16

// Config configures an Engine.
type Config struct {
	// Costs supplies the decision-rule parameters; zero value is replaced
	// by costmodel.DefaultSim().
	Costs costmodel.Costs
	// Tracker estimates E[W]; nil selects a Top-K tracker with 1024 hot
	// slots over a 16384×4 count-min tail.
	Tracker sketch.Tracker
	// SLO is the optional staleness-miss-ratio bound (see Decider.SLO).
	SLO float64
	// MaxInvalidated bounds the store-side invalidated-key set; beyond
	// it the oldest entries are forgotten (a forgotten key at worst
	// receives one redundant invalidate). Defaults to 1<<16.
	MaxInvalidated int
}

// Engine is the store-side (or proxy-side) policy engine of Figure 4:
// it observes the request stream, buffers written keys, and at each flush
// emits one batched decision per dirty key that is due. Engine is safe for
// concurrent use.
type Engine struct {
	mu      sync.Mutex
	decider Decider
	// keys holds every key that is dirty, cooling, or both. A dirty key
	// that is not cooling is also in ready; a cooling key is also in the
	// wheel bucket of the slice it was pushed in (or, never read, of the
	// last slice flushed before its write), for Slices slices.
	keys  map[string]keyState
	ready []string
	wheel [Slices][]string
	held  int    // keys both cooling and dirty
	slice uint64 // the last slice flushed, counted with skew
	skew  uint64 // slices Flush has put the engine ahead of FlushSlice's caller

	invalidated map[string]uint64 // key -> epoch of invalidation, for LRU-ish eviction
	epoch       uint64
	maxInv      int

	flushes     uint64
	invSent     uint64
	updSent     uint64
	skippedInv  uint64
	evictedInvs uint64
}

// NewEngine builds an Engine from cfg.
func NewEngine(cfg Config) *Engine {
	costs := cfg.Costs
	if costs == (costmodel.Costs{}) {
		costs = costmodel.DefaultSim()
	}
	tr := cfg.Tracker
	if tr == nil {
		tr = sketch.MustTopK(1024, 16384, 4)
	}
	maxInv := cfg.MaxInvalidated
	if maxInv <= 0 {
		maxInv = 1 << 16
	}
	return &Engine{
		decider:     Decider{Tracker: tr, Costs: costs, SLO: cfg.SLO},
		keys:        make(map[string]keyState),
		invalidated: make(map[string]uint64),
		maxInv:      maxInv,
	}
}

// ObserveRead records a read of key (seen by the proxy/LB, or reported by
// the cache; see internal/store for the piggyback channel).
func (e *Engine) ObserveRead(key string) {
	e.mu.Lock()
	e.decider.ObserveRead(sketch.Hash(key))
	e.mu.Unlock()
}

// ObserveReadN records n reads of key in one tracker operation: the
// one-element case of ObserveReads.
func (e *Engine) ObserveReadN(key string, n uint32) {
	e.ObserveReads([]ReadCount{{key, n}})
}

// ReadCount is one key's reads since they were last reported.
type ReadCount struct {
	Key string
	N   uint32
}

// ObserveReads records a cache's read report — per-key counts of up to
// 2^16 reads, thousands of keys at a time — under one acquisition of the
// engine lock and in one tracker operation per key.
func (e *Engine) ObserveReads(reads []ReadCount) {
	e.mu.Lock()
	for _, r := range reads {
		if r.N != 0 {
			e.decider.ObserveReadN(sketch.Hash(r.Key), uint64(r.N))
		}
	}
	e.mu.Unlock()
}

// keyState is what the engine remembers of a dirty or cooling key.
type keyState struct {
	since   int64 // stamp of the oldest unpushed write; clean if none
	cooling bool  // pushed within the last Slices slices
}

const clean = math.MinInt64

// ObserveWrite records a write of key and marks it dirty.
func (e *Engine) ObserveWrite(key string) { e.ObserveWriteAt(key, 0) }

// ObserveWriteAt is ObserveWrite with a stamp: the one-element case of
// ObserveWritesAt.
func (e *Engine) ObserveWriteAt(key string, at int64) (flush bool) {
	return e.ObserveWritesAt([]string{key}, at)
}

// ObserveWritesAt records one request's writes under one acquisition of the
// engine lock. at is a reading of any clock the caller likes: the Decision
// that covers a write carries the stamp of the oldest write it covers. It
// reports whether the caller should call FlushSlice now, without waiting
// for a boundary: a write made its key due now — newly dirty, read before,
// not cooling — or the engine held no key, and the caller may be watching no
// boundary at all (a bulk load into an idle engine would otherwise pile up
// behind the one stale flush and leave as one frame).
func (e *Engine) ObserveWritesAt(keys []string, at int64) (flush bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	flush = len(e.keys) == 0 && len(keys) > 0
	for _, key := range keys {
		h := sketch.Hash(key)
		e.decider.ObserveWrite(h)
		switch st, known := e.keys[key]; {
		case !known && e.decider.Tracker.Reads(h) > 0:
			e.keys[key] = keyState{since: at}
			e.ready = append(e.ready, key)
			flush = true
		case !known:
			// Nobody has read it, so no cache holds a copy to refresh early
			// (a bulk load, say): hold it as if it had been pushed at the
			// last flush, which was before its write.
			e.keys[key] = keyState{since: at, cooling: true}
			e.held++
			e.wheel[e.slice%Slices] = append(e.wheel[e.slice%Slices], key)
		case st.since == clean: // cooling: held until the cooldown ends
			e.keys[key] = keyState{since: at, cooling: true}
			e.held++
		}
	}
	return flush
}

// KeyFreq returns the tracker's (possibly approximate) read and write
// counts for key — the per-key policy state a store exports when the
// key migrates to another shard.
func (e *Engine) KeyFreq(key string) (reads, writes uint64) {
	h := sketch.Hash(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.decider.Tracker.Reads(h), e.decider.Tracker.Writes(h)
}

// WarmStart replays a migrated key's read/write counts into the
// tracker so the update-vs-invalidate decision does not cold-start on
// the adopting shard. The writes are replayed first, then the reads:
// the first read folds the whole write run into one E[W] sample and
// the rest contribute zero-write samples, leaving E[W] ≈ writes/reads
// — the donor's steady-state estimate. The key is not marked dirty; a
// migration is not a write.
func (e *Engine) WarmStart(key string, reads, writes uint64) {
	if reads == 0 && writes == 0 {
		return
	}
	h := sketch.Hash(key)
	e.mu.Lock()
	if writes > 0 {
		e.decider.Tracker.ObserveWriteN(h, writes)
	}
	if reads > 0 {
		e.decider.Tracker.ObserveReadN(h, reads)
	}
	e.mu.Unlock()
}

// NoteFilled tells the engine the cache re-fetched key (a miss was
// served), so the cache's copy is fresh again and future writes must send
// a fresh invalidate rather than being deduplicated away.
func (e *Engine) NoteFilled(key string) {
	e.mu.Lock()
	delete(e.invalidated, key)
	e.mu.Unlock()
}

// DirtyCount returns the number of keys with a write no flush has covered
// yet, whether they are due now or held by a cooldown.
func (e *Engine) DirtyCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ready) + e.held
}

// Pending reports whether the engine holds any key, dirty or cooling: while
// it does the caller owes it a FlushSlice at the next boundary, where a write
// to a cooling key — never reported due — is released.
func (e *Engine) Pending() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.keys) > 0
}

// FlushSlice flushes in slice n, at its boundary or anywhere inside it: it
// appends to out one decision per dirty key that is due — written with a
// reader and no cooldown since the last flush, or held until a cooldown that
// ends at n, or at a number the caller skipped — and returns it. n may
// repeat and may skip. A decision that sends a message starts its key's
// cooldown, which ends at boundary n+Slices; ActionNone sends nothing and
// starts none. Keys decided as invalidate are remembered so later writes do
// not re-invalidate them until the cache refills (NoteFilled).
func (e *Engine) FlushSlice(n uint64, out []Decision) []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked(n+e.skew, out)
}

// Flush drains everything dirty at once, as if a whole T had just passed
// and ended every cooldown: one decision per dirty key, sorted by key for
// deterministic output.
func (e *Engine) Flush() []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.skew += Slices
	out := e.flushLocked(e.slice+Slices, nil)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (e *Engine) flushLocked(n uint64, out []Decision) []Decision {
	e.flushes++
	prev := e.slice
	e.slice = max(n, prev)
	from := prev + 1
	if from+Slices <= e.slice {
		from = e.slice - Slices + 1 // every bucket once
	}
	// Newest bucket first: a key pushed again goes to the current slice's
	// bucket, behind the read position there, not into one yet to come.
	for m := e.slice; m >= from; m-- {
		due := e.wheel[m%Slices]
		e.wheel[m%Slices] = due[:0]
		for _, key := range due {
			if since := e.keys[key].since; since != clean {
				e.held--
				out = e.pushLocked(out, key, since, true) // overwrites the key's state, or deletes it
			} else {
				delete(e.keys, key)
			}
		}
	}
	for _, key := range e.ready {
		out = e.pushLocked(out, key, e.keys[key].since, false)
	}
	e.ready = e.ready[:0]
	return out
}

func (e *Engine) pushLocked(out []Decision, key string, since int64, held bool) []Decision {
	action := e.decideLocked(key)
	if action == ActionNone {
		delete(e.keys, key)
	} else {
		e.keys[key] = keyState{since: clean, cooling: true}
		e.wheel[e.slice%Slices] = append(e.wheel[e.slice%Slices], key)
	}
	return append(out, Decision{Key: key, Action: action, Since: since, Held: held})
}

func (e *Engine) decideLocked(key string) Action {
	if e.decider.Update(sketch.Hash(key)) {
		delete(e.invalidated, key)
		e.updSent++
		return ActionUpdate
	}
	if _, already := e.invalidated[key]; already {
		e.skippedInv++
		return ActionNone
	}
	e.rememberInvalidatedLocked(key)
	e.invSent++
	return ActionInvalidate
}

// rememberInvalidatedLocked adds key to the invalidated set, evicting the
// oldest ~10% when the bound is hit. Forgetting is safe: the only effect
// is a possible redundant invalidate later.
func (e *Engine) rememberInvalidatedLocked(key string) {
	if len(e.invalidated) >= e.maxInv {
		type kv struct {
			k  string
			ep uint64
		}
		victims := make([]kv, 0, len(e.invalidated))
		for k, ep := range e.invalidated {
			victims = append(victims, kv{k, ep})
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].ep < victims[j].ep })
		drop := len(victims)/10 + 1
		for _, v := range victims[:drop] {
			delete(e.invalidated, v.k)
			e.evictedInvs++
		}
	}
	e.epoch++
	e.invalidated[key] = e.epoch
}

// EngineStats is a point-in-time snapshot of engine counters.
type EngineStats struct {
	Flushes, InvalidatesSent, UpdatesSent uint64
	SkippedInvalidates                    uint64
	InvalidatedTracked                    int
	EvictedInvalidations                  uint64
	TrackerBytes                          int
	TrackerName                           string
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Flushes:              e.flushes,
		InvalidatesSent:      e.invSent,
		UpdatesSent:          e.updSent,
		SkippedInvalidates:   e.skippedInv,
		InvalidatedTracked:   len(e.invalidated),
		EvictedInvalidations: e.evictedInvs,
		TrackerBytes:         e.decider.Tracker.Bytes(),
		TrackerName:          e.decider.Tracker.Name(),
	}
}
