// Package simulate is the discrete-event cache-freshness simulator used
// to reproduce the paper's evaluation (Figures 2, 3, and 5).
//
// It models the cache-aside deployment of Figures 1 and 4: reads are
// served by a capacity-limited LRU cache and fill it on miss; writes go
// directly to the backing store; freshness machinery — TTL timers or
// store-side batched invalidates/updates flushed once per staleness bound
// T — keeps resident copies within the bound. (The live store flushes a
// key not pushed in the last T at once, see internal/core; this pure tick
// over-states staleness for keys written less than once per T.) Costs are
// accounted exactly as §2 defines them:
//
//   - C_S: reads that found the object resident but unusable because it
//     was stale (TTL expired or invalidated);
//   - C_F: message/work overhead of freshness — invalidates (c_i),
//     updates (c_u), refreshes and stale-miss refills (c_m). Cold and
//     capacity misses are useful cache-population work and are excluded,
//     exactly as the paper separates C_S from plain miss ratio.
//
// The simulator also self-checks bounded staleness: every hit is verified
// against the full write history, and any read that would have returned
// data staler than T is counted in Result.FreshnessViolations (all
// policies must keep this at zero; tests enforce it).
package simulate

import (
	"fmt"
	"math"
	"sort"

	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/model"
	"freshcache/internal/sketch"
	"freshcache/internal/workload"
)

// Config selects the policy and system parameters for one run.
type Config struct {
	// T is the staleness bound in virtual seconds (also the TTL duration
	// and the invalidate/update batching interval). Must be > 0.
	T float64
	// Capacity is the cache size in objects; 0 means unbounded.
	Capacity int
	// Costs supplies c_m, c_i, c_u; the zero value selects
	// costmodel.DefaultSim().
	Costs costmodel.Costs
	// Policy picks the freshness mechanism.
	Policy model.Policy
	// UseEWTracker switches the adaptive policies from the full §3.2
	// decision rule (update iff c_u < P̂_R/(P̂_R+P̂_W)·(c_m+c_i), with
	// per-key interval-occupancy probabilities estimated online) to the
	// pragmatic T→0 approximation of §3.3 (update iff E[W]·c_u <
	// c_m+c_i, over a sketch.Tracker). The full rule is what Figure 5's
	// "Adpt." evaluates; the E[W] rule is the deployable approximation
	// whose sketch accuracy Figure 6 studies.
	UseEWTracker bool
	// NewTracker builds the E[W] estimator when UseEWTracker is set;
	// nil selects an exact tracker.
	NewTracker func() sketch.Tracker
	// SLO is the optional staleness SLO for the adaptive policy (§3.2).
	SLO float64
	// DisableFreshnessCheck skips the per-hit bounded-staleness audit
	// (a ~2× speedup for large parameter sweeps once the invariant has
	// been established by the test suite).
	DisableFreshnessCheck bool
}

// Result aggregates one run's metrics.
type Result struct {
	Policy   string
	Workload string
	T        float64

	Reads, Writes uint64
	// Hits are reads served fresh from the cache.
	Hits uint64
	// StaleMisses is C_S: resident but stale (expired/invalidated).
	StaleMisses uint64
	// ColdMisses are reads of absent objects (never cached or evicted).
	ColdMisses uint64
	// Evictions counts LRU displacements.
	Evictions uint64

	// Message counts by kind.
	Invalidations, Updates, Refetches, Polls uint64
	// WastedInvalidations/WastedUpdates were sent for keys not resident
	// in the cache (the store cannot know without cache-state sharing).
	WastedInvalidations, WastedUpdates uint64

	// CF and CS are the paper's freshness and staleness costs; CFNorm
	// and CSNorm the normalized forms of §2.2.
	CF, CS         float64
	CFNorm, CSNorm float64

	// FreshnessViolations counts hits that returned data staler than the
	// bound; it must be zero for every correct policy.
	FreshnessViolations uint64
}

// PresentReads returns the number of reads for which the object was
// resident (the C′_S denominator).
func (r Result) PresentReads() uint64 { return r.Hits + r.StaleMisses }

// MissRatio returns the overall miss ratio including cold misses.
func (r Result) MissRatio() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.StaleMisses+r.ColdMisses) / float64(r.Reads)
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%s T=%g: C'_F=%.4gx C'_S=%.4g%% (hits=%d stale=%d cold=%d inv=%d upd=%d)",
		r.Policy, r.T, r.CFNorm, 100*r.CSNorm, r.Hits, r.StaleMisses, r.ColdMisses,
		r.Invalidations, r.Updates)
}

// keyTimes holds a key's request history for omniscient lookahead and the
// freshness audit.
type keyTimes struct {
	reads  []float64
	writes []float64
}

type engine struct {
	cfg    Config
	cache  *lru
	res    Result
	ttlExp bool

	// Store-side state for the write-reactive policies.
	dirty       map[uint64]struct{}
	invalidated map[uint64]struct{}
	decider     *core.Decider // E[W]-rule mode
	rates       *rateTracker  // full-rule mode
	// pending holds keys the Optimal policy has deferred: written, but
	// with no read in the upcoming interval yet.
	pending map[uint64]struct{}

	// Full request history per key (built in one pass) for the Optimal
	// policy's lookahead and the staleness audit.
	hist map[uint64]*keyTimes

	adaptive bool
}

// rateCell tracks one key's per-interval occupancy and event counts for
// the full §3.2 decision rule.
type rateCell struct {
	firstIv     int64
	lastReadIv  int64
	lastWriteIv int64
	readIvs     int64 // intervals containing ≥1 read
	writeIvs    int64 // intervals containing ≥1 write
	reads       uint64
	writes      uint64
}

// rateTracker estimates P_R(T) and P_W(T) per key as the fraction of
// elapsed staleness intervals containing at least one read (write), with
// Laplace smoothing for cold keys.
type rateTracker struct {
	m map[uint64]*rateCell
}

func newRateTracker() *rateTracker { return &rateTracker{m: make(map[uint64]*rateCell)} }

func (rt *rateTracker) observe(key uint64, iv int64, isRead bool) {
	c := rt.m[key]
	if c == nil {
		c = &rateCell{firstIv: iv, lastReadIv: -1, lastWriteIv: -1}
		rt.m[key] = c
	}
	if isRead {
		c.reads++
		if c.lastReadIv != iv {
			c.lastReadIv = iv
			c.readIvs++
		}
	} else {
		c.writes++
		if c.lastWriteIv != iv {
			c.lastWriteIv = iv
			c.writeIvs++
		}
	}
}

// shouldUpdate applies §3.2: update iff c_u < P̂_R/(P̂_R+P̂_W)·(c_m+c_i),
// with the SLO escape hatch forcing updates for keys whose write fraction
// would breach the staleness SLO under invalidation.
func (rt *rateTracker) shouldUpdate(key uint64, nowIv int64, costs costmodel.Costs, slo float64) bool {
	if math.IsInf(costs.Cm, 1) {
		return true
	}
	c := rt.m[key]
	if c == nil {
		// Never observed: default to the cheap side.
		return costs.Cu < 0.5*(costs.Cm+costs.Ci)
	}
	n := float64(nowIv-c.firstIv) + 1
	if n < 1 {
		n = 1
	}
	pr := (float64(c.readIvs) + 0.5) / (n + 1)
	pw := (float64(c.writeIvs) + 0.5) / (n + 1)
	if costs.Cu < pr/(pr+pw)*(costs.Cm+costs.Ci) {
		return true
	}
	if slo > 0 && c.reads+c.writes > 0 {
		writeFrac := float64(c.writes) / float64(c.reads+c.writes)
		if writeFrac > slo {
			return true
		}
	}
	return false
}

// Run simulates cfg over the trace and returns the metric bundle.
func Run(cfg Config, tr *workload.Trace) (Result, error) {
	if !(cfg.T > 0) || math.IsInf(cfg.T, 0) || math.IsNaN(cfg.T) {
		return Result{}, fmt.Errorf("simulate: staleness bound T=%v out of range", cfg.T)
	}
	if cfg.Capacity < 0 {
		return Result{}, fmt.Errorf("simulate: negative capacity %d", cfg.Capacity)
	}
	costs := cfg.Costs
	if costs == (costmodel.Costs{}) {
		costs = costmodel.DefaultSim()
	}
	cfg.Costs = costs
	switch cfg.Policy {
	case model.TTLExpiry, model.TTLPolling, model.Invalidate, model.Update,
		model.Adaptive, model.AdaptiveCS, model.Optimal:
	default:
		return Result{}, fmt.Errorf("simulate: unknown policy %v", cfg.Policy)
	}

	e := &engine{
		cfg:         cfg,
		cache:       newLRU(cfg.Capacity),
		dirty:       make(map[uint64]struct{}),
		invalidated: make(map[uint64]struct{}),
		pending:     make(map[uint64]struct{}),
		ttlExp:      cfg.Policy == model.TTLExpiry,
		adaptive:    cfg.Policy == model.Adaptive || cfg.Policy == model.AdaptiveCS,
	}
	e.res.Policy = cfg.Policy.String()
	e.res.Workload = tr.Name
	e.res.T = cfg.T

	if e.adaptive {
		if cfg.UseEWTracker {
			mk := cfg.NewTracker
			if mk == nil {
				mk = func() sketch.Tracker { return sketch.NewExact() }
			}
			e.decider = &core.Decider{Tracker: mk(), Costs: costs, SLO: cfg.SLO}
		} else {
			e.rates = newRateTracker()
		}
	}
	if cfg.Policy == model.Optimal || !cfg.DisableFreshnessCheck {
		e.hist = buildHistory(tr)
	}

	nextFlush := cfg.T
	for i := range tr.Requests {
		req := &tr.Requests[i]
		for req.At >= nextFlush {
			e.flush(nextFlush)
			nextFlush += cfg.T
		}
		if req.Op == workload.OpRead {
			e.read(req.At, req.Key)
		} else {
			e.write(req.At, req.Key)
		}
	}
	// Final partial interval: flush so trailing writes are charged.
	e.flush(nextFlush)

	e.res.Evictions = e.cache.evictions
	e.normalize()
	return e.res, nil
}

func buildHistory(tr *workload.Trace) map[uint64]*keyTimes {
	h := make(map[uint64]*keyTimes)
	for _, r := range tr.Requests {
		kt := h[r.Key]
		if kt == nil {
			kt = &keyTimes{}
			h[r.Key] = kt
		}
		if r.Op == workload.OpRead {
			kt.reads = append(kt.reads, r.At)
		} else {
			kt.writes = append(kt.writes, r.At)
		}
	}
	return h
}

// observe feeds the adaptive policy's estimator.
func (e *engine) observe(t float64, key uint64, isRead bool) {
	if !e.adaptive {
		return
	}
	if e.decider != nil {
		if isRead {
			e.decider.ObserveRead(key)
		} else {
			e.decider.ObserveWrite(key)
		}
		return
	}
	e.rates.observe(key, int64(t/e.cfg.T), isRead)
}

// read processes one read request at virtual time t.
func (e *engine) read(t float64, key uint64) {
	e.res.Reads++
	e.observe(t, key, true)
	ent := e.cache.get(key)
	switch {
	case ent != nil && !ent.stale && t < ent.freshUntil:
		// Fresh hit.
		e.res.Hits++
		e.auditHit(t, key, ent)
		e.cache.touch(ent)
	case ent != nil:
		// Resident but stale or TTL-expired: the staleness cost C_S,
		// plus a c_m refill in C_F.
		e.res.StaleMisses++
		e.res.Refetches++
		e.res.CF += e.cfg.Costs.Cm
		e.res.CS++
		e.fill(ent, t)
		e.cache.touch(ent)
	default:
		// Cold/capacity miss: useful population work, not freshness
		// overhead.
		e.res.ColdMisses++
		ent, _, _ := e.cache.insert(key)
		e.fill(ent, t)
	}
}

// fill refreshes ent from the store at time t (miss service).
func (e *engine) fill(ent *entry, t float64) {
	ent.stale = false
	ent.versionTime = t
	if e.ttlExp {
		ent.freshUntil = t + e.cfg.T
	} else {
		ent.freshUntil = math.Inf(1)
	}
	// The cache's copy is fresh again; the store may re-invalidate it.
	delete(e.invalidated, ent.key)
}

// write processes one write at virtual time t. Writes bypass the cache
// (Figure 1); write-reactive policies mark the key dirty for the next
// batch flush.
func (e *engine) write(t float64, key uint64) {
	e.res.Writes++
	e.observe(t, key, false)
	switch e.cfg.Policy {
	case model.Invalidate, model.Update, model.Adaptive, model.AdaptiveCS, model.Optimal:
		e.dirty[key] = struct{}{}
	}
}

// flush runs the end-of-interval coordination at boundary time b.
func (e *engine) flush(b float64) {
	switch e.cfg.Policy {
	case model.TTLExpiry:
		// Expiry is handled by per-entry freshUntil deadlines; writes
		// are never tracked.
	case model.TTLPolling:
		// Proactively refresh every resident object, fresh or not.
		e.cache.each(func(ent *entry) {
			ent.stale = false
			ent.versionTime = b
			e.res.Polls++
			e.res.CF += e.cfg.Costs.Cm
		})
	case model.Invalidate:
		for key := range e.dirty {
			e.sendInvalidate(key)
		}
		clear(e.dirty)
	case model.Update:
		for key := range e.dirty {
			e.sendUpdate(key, b)
		}
		clear(e.dirty)
	case model.Adaptive, model.AdaptiveCS:
		knowsCache := e.cfg.Policy == model.AdaptiveCS
		nowIv := int64(math.Round(b/e.cfg.T)) - 1 // interval just ended
		for key := range e.dirty {
			if knowsCache && e.cache.get(key) == nil {
				continue // nothing cached: nothing to keep fresh
			}
			if e.shouldUpdate(key, nowIv) {
				e.sendUpdate(key, b)
			} else {
				e.sendInvalidate(key)
			}
		}
		clear(e.dirty)
	case model.Optimal:
		for key := range e.dirty {
			e.pending[key] = struct{}{}
		}
		clear(e.dirty)
		for key := range e.pending {
			if e.optimalStep(key, b) {
				delete(e.pending, key)
			}
		}
	}
}

// shouldUpdate dispatches to the configured adaptive decision rule.
func (e *engine) shouldUpdate(key uint64, nowIv int64) bool {
	if e.decider != nil {
		return e.decider.Update(key)
	}
	return e.rates.shouldUpdate(key, nowIv, e.cfg.Costs, e.cfg.SLO)
}

// sendInvalidate charges one invalidation for key unless the store
// already knows the cached copy is invalid.
func (e *engine) sendInvalidate(key uint64) {
	if _, already := e.invalidated[key]; already {
		return
	}
	e.invalidated[key] = struct{}{}
	e.res.Invalidations++
	e.res.CF += e.cfg.Costs.Ci
	if ent := e.cache.get(key); ent != nil {
		ent.stale = true
	} else {
		e.res.WastedInvalidations++
	}
}

// sendUpdate charges one update for key, refreshing the resident copy if
// any.
func (e *engine) sendUpdate(key uint64, b float64) {
	e.res.Updates++
	e.res.CF += e.cfg.Costs.Cu
	delete(e.invalidated, key)
	if ent := e.cache.get(key); ent != nil {
		ent.stale = false
		ent.versionTime = b
	} else {
		e.res.WastedUpdates++
	}
}

// optimalStep advances the omniscient §3.2 reference for one pending key
// at boundary b, deciding about the upcoming interval I = [b, b+T):
//
//   - I contains a read  → act now, paying min(c_u, c_i+c_m);
//   - I contains a write (and no read) → resolved for free: the write
//     supersedes this one and re-dirties the key at the next boundary;
//   - I empty → stay pending and re-examine at b+T (the paper's "skipped
//     interval" recursion), unless no read ever follows, in which case
//     the key needs no freshness work at all.
//
// Cache contents are known, so absent keys cost nothing. It returns true
// when the key is resolved (leaves the pending set).
func (e *engine) optimalStep(key uint64, b float64) bool {
	ent := e.cache.get(key)
	if ent == nil {
		return true // a future read will cold-miss and fetch fresh data
	}
	kt := e.hist[key]
	nr, hasRead := firstAtOrAfter(kt.reads, b)
	if !hasRead {
		// Never read again: the stale copy is unobservable. Mark it so
		// accounting stays conservative if capacity churn refills it.
		ent.stale = true
		e.invalidated[key] = struct{}{}
		return true
	}
	if nr < b+e.cfg.T {
		if e.cfg.Costs.Cu <= e.cfg.Costs.Ci+e.cfg.Costs.Cm {
			e.sendUpdate(key, b)
		} else {
			e.sendInvalidate(key)
		}
		return true
	}
	if nw, hasWrite := firstAtOrAfter(kt.writes, b); hasWrite && nw < b+e.cfg.T {
		return true // superseded: the write re-dirties the key
	}
	return false // empty interval: recurse at the next boundary
}

// firstAtOrAfter returns the smallest time in sorted ts at or after t.
func firstAtOrAfter(ts []float64, t float64) (float64, bool) {
	i := sort.SearchFloat64s(ts, t)
	if i == len(ts) {
		return 0, false
	}
	return ts[i], true
}

// auditHit verifies bounded staleness for a hit at time t: every write at
// or before t−T must be reflected in the returned copy.
func (e *engine) auditHit(t float64, key uint64, ent *entry) {
	if e.cfg.DisableFreshnessCheck {
		return
	}
	kt := e.hist[key]
	if kt == nil || len(kt.writes) == 0 {
		return
	}
	cutoff := t - e.cfg.T
	// Index of the first write strictly after the cutoff; everything
	// before it is old enough that the bound requires it be reflected.
	i := sort.SearchFloat64s(kt.writes, cutoff) // first ≥ cutoff
	for i < len(kt.writes) && kt.writes[i] == cutoff {
		i++
	}
	if i == 0 {
		return // no writes old enough to be required
	}
	if required := kt.writes[i-1]; ent.versionTime < required {
		e.res.FreshnessViolations++
	}
}

// normalize computes C′_F and C′_S per §2.2: freshness cost over the cost
// of serving every read, and stale misses over reads with the object
// resident.
func (e *engine) normalize() {
	if e.res.Reads > 0 && e.cfg.Costs.Cm > 0 && !math.IsInf(e.cfg.Costs.Cm, 1) {
		e.res.CFNorm = e.res.CF / (float64(e.res.Reads) * e.cfg.Costs.Cm)
	}
	if pr := e.res.PresentReads(); pr > 0 {
		e.res.CSNorm = e.res.CS / float64(pr)
	}
}
