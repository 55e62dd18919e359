// Package model implements the analytical freshness model of §2–§3 of
// "Revisiting Cache Freshness for Emerging Real-Time Applications"
// (HotNets '24).
//
// The model reasons about a single cached object under a bounded-staleness
// requirement T: a cached copy is fresh if it reflects every write issued
// to the backing store at least T seconds ago. Requests to the object
// arrive as a Poisson process with rate λ; each request is independently a
// read with probability r and a write with probability 1−r.
//
// Two aggregate costs are modeled over an observation window T′:
//
//   - C_F, the freshness cost: throughput overhead (messages, cycles) spent
//     keeping the cached copy fresh;
//   - C_S, the staleness cost: the number of reads that found the object
//     resident in the cache but unusable because it was stale.
//
// Costs for different objects are assumed independent and additive, so
// workload-level costs are sums over per-object costs (§2.1). The package
// also provides the normalized forms C′_F and C′_S used throughout the
// paper's evaluation and the adaptive update-vs-invalidate decision rules
// of §3.2–§3.3.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Params describes one object's request process and the system cost
// constants, in the units of §2–§3.
type Params struct {
	// Lambda is the Poisson arrival rate of requests to the object
	// (requests/second). Must be > 0.
	Lambda float64
	// R is the probability a request is a read (0 ≤ R ≤ 1); writes have
	// probability 1−R.
	R float64
	// T is the staleness bound in seconds. Must be > 0.
	T float64
	// Horizon is the observation window T′ in seconds. If zero, it
	// defaults to T (one interval), matching the paper's worked example.
	Horizon float64
	// Cm, Ci, Cu are the costs of a miss, an invalidate, and an update.
	// The paper assumes Cu < Cm (updating is cheaper than taking a miss).
	Cm, Ci, Cu float64
}

// ErrBadParams reports parameters outside the model's domain.
var ErrBadParams = errors.New("model: parameters out of domain")

// Validate checks that p lies in the model's domain.
func (p Params) Validate() error {
	switch {
	case !(p.Lambda > 0) || math.IsInf(p.Lambda, 0):
		return fmt.Errorf("%w: Lambda=%v (need 0 < λ < ∞)", ErrBadParams, p.Lambda)
	case p.R < 0 || p.R > 1 || math.IsNaN(p.R):
		return fmt.Errorf("%w: R=%v (need 0 ≤ r ≤ 1)", ErrBadParams, p.R)
	case !(p.T > 0) || math.IsInf(p.T, 0):
		return fmt.Errorf("%w: T=%v (need 0 < T < ∞)", ErrBadParams, p.T)
	case p.Horizon < 0:
		return fmt.Errorf("%w: Horizon=%v (need ≥ 0)", ErrBadParams, p.Horizon)
	case p.Cm < 0 || p.Ci < 0 || p.Cu < 0:
		return fmt.Errorf("%w: costs (cm=%v ci=%v cu=%v) must be ≥ 0", ErrBadParams, p.Cm, p.Ci, p.Cu)
	}
	return nil
}

// horizon returns the effective observation window T′.
func (p Params) horizon() float64 {
	if p.Horizon > 0 {
		return p.Horizon
	}
	return p.T
}

// intervals returns T′/T, the number of staleness intervals in the window.
func (p Params) intervals() float64 { return p.horizon() / p.T }

// PR returns P_R(T) = 1 − e^{−λrT}, the probability of at least one read
// to the object in an interval of length T.
func (p Params) PR() float64 { return -math.Expm1(-p.Lambda * p.R * p.T) }

// PW returns P_W(T) = 1 − e^{−λ(1−r)T}, the probability of at least one
// write to the object in an interval of length T.
func (p Params) PW() float64 { return -math.Expm1(-p.Lambda * (1 - p.R) * p.T) }

// NR returns N_R = λ·r·T′, the expected number of reads in the window.
func (p Params) NR() float64 { return p.Lambda * p.R * p.horizon() }

// Policy identifies one of the freshness mechanisms analyzed in the paper.
type Policy int

// The policies of §2.2 and §3.1–§3.2. Adaptive is the paper's proposed
// per-key policy; AdaptiveCS additionally assumes the store knows which
// keys are cached; Optimal is the omniscient lower bound.
const (
	TTLExpiry Policy = iota
	TTLPolling
	Invalidate
	Update
	Adaptive
	AdaptiveCS
	Optimal
)

var policyNames = [...]string{
	TTLExpiry:  "ttl-expiry",
	TTLPolling: "ttl-polling",
	Invalidate: "invalidate",
	Update:     "update",
	Adaptive:   "adaptive",
	AdaptiveCS: "adaptive+cs",
	Optimal:    "optimal",
}

// String returns the canonical lowercase name used by the CLI and reports.
func (pl Policy) String() string {
	if pl < 0 || int(pl) >= len(policyNames) {
		return fmt.Sprintf("policy(%d)", int(pl))
	}
	return policyNames[pl]
}

// ParsePolicy maps a CLI name back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for i, n := range policyNames {
		if n == s {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("model: unknown policy %q", s)
}

// Costs bundles the model's two cost metrics for one object over the
// window, plus their normalized forms.
type Costs struct {
	// CF is the freshness cost (throughput overhead) over the window.
	CF float64
	// CS is the staleness cost (stale-read misses) over the window.
	CS float64
	// CFNorm is C′_F: CF divided by the cost of serving all reads
	// (λ·r·T′·cm under the "useful work = backend read per request"
	// normalization of §2.2): wasted over useful cycles.
	CFNorm float64
	// CSNorm is C′_S: CS divided by the expected number of reads, the
	// miss ratio attributable solely to staleness.
	CSNorm float64
}

func (p Params) normalize(cf, cs float64) Costs {
	nr := p.NR()
	c := Costs{CF: cf, CS: cs}
	if nr > 0 {
		if p.Cm > 0 {
			c.CFNorm = cf / (nr * p.Cm)
		}
		c.CSNorm = cs / nr
	}
	return c
}

// TTLExpiryCosts returns the §2.2 costs for TTL-expiry:
//
//	C_S = (T′/T)·P_R(T)          (one stale miss per interval with a read)
//	C_F = C_S · c_m              (the only overhead is servicing those misses)
func (p Params) TTLExpiryCosts() Costs {
	cs := p.intervals() * p.PR()
	return p.normalize(cs*p.Cm, cs)
}

// TTLPollingCosts returns the §2.2 costs for TTL-polling:
//
//	C_S = 0                      (data in cache is never stale)
//	C_F = (T′/T) · c_m           (a refresh per interval, same work as a miss)
func (p Params) TTLPollingCosts() Costs {
	return p.normalize(p.intervals()*p.Cm, 0)
}

// UpdateCosts returns the §3.1 costs for the always-update policy:
//
//	C_S = 0
//	C_F = (T′/T)·P_W(T)·c_u      (one batched update per interval with ≥1 write)
func (p Params) UpdateCosts() Costs {
	return p.normalize(p.intervals()*p.PW()*p.Cu, 0)
}

// InvalidateStationaryP returns p, the stationary probability that the key
// is in the invalidated state at an interval boundary under the
// always-invalidate policy (§3.1): p = P_W / (P_R + P_W).
func (p Params) InvalidateStationaryP() float64 {
	pr, pw := p.PR(), p.PW()
	if pr+pw == 0 {
		return 0
	}
	return pw / (pr + pw)
}

// InvalidateCosts returns the §3.1 costs for the always-invalidate policy:
//
//	C_F = (T′/T) · P_R·P_W/(P_R+P_W) · (c_m + c_i)
//	C_S = (T′/T) · P_R·P_W/(P_R+P_W)
func (p Params) InvalidateCosts() Costs {
	pr, pw := p.PR(), p.PW()
	var base float64
	if pr+pw > 0 {
		base = p.intervals() * pr * pw / (pr + pw)
	}
	return p.normalize(base*(p.Cm+p.Ci), base)
}

// ShouldUpdate reports the §3.2 throughput-optimal decision: send updates
// (rather than invalidates) iff
//
//	c_u < P_R/(P_R+P_W) · (c_m + c_i).
//
// With P_R+P_W = 0 (no traffic) it reports false: doing nothing is free
// and invalidation-mode sends nothing when no writes arrive.
func (p Params) ShouldUpdate() bool {
	pr, pw := p.PR(), p.PW()
	if pr+pw == 0 {
		return false
	}
	return p.Cu < pr/(pr+pw)*(p.Cm+p.Ci)
}

// ShouldUpdateLimit reports the T→0 limit of ShouldUpdate (§3.2):
//
//	c_u < r·(c_m + c_i),
//
// independent of λ and T.
func (p Params) ShouldUpdateLimit() bool {
	return p.Cu < p.R*(p.Cm+p.Ci)
}

// ShouldUpdateSLO reports the §3.2 decision under a staleness SLO
// C′_S ≤ slo (as T→0): update iff (c_i+c_m)·r > c_u OR 1−r > slo.
// (Invalidation's limiting stale-miss ratio is 1−r; if that violates the
// SLO the policy must update regardless of throughput cost.)
func (p Params) ShouldUpdateSLO(slo float64) bool {
	return (p.Ci+p.Cm)*p.R > p.Cu || (1-p.R) > slo
}

// CSNormLimit returns the T→0 limit of invalidation's C′_S, which is 1−r
// (§3.2): every read that follows a write misses.
func (p Params) CSNormLimit() float64 { return 1 - p.R }

// EWExpected returns E[W], the expected number of writes between two
// consecutive reads under the i.i.d. read/write mixing assumption:
// a geometric count with success probability r, E[W] = (1−r)/r.
// Returns +Inf when r = 0.
func (p Params) EWExpected() float64 {
	if p.R == 0 {
		return math.Inf(1)
	}
	return (1 - p.R) / p.R
}

// ShouldUpdateEW reports the pragmatic §3.3 rule given a measured E[W]:
// update iff E[W]·c_u < c_m + c_i. (A run of E[W] writes costs E[W]·c_u
// under updating versus one invalidate plus one miss, c_i + c_m, under
// invalidation; the paper's prose states the comparison inverted.)
func ShouldUpdateEW(ew, cu, ci, cm float64) bool {
	return ew*cu < cm+ci
}

// AdaptiveCosts returns the model-predicted costs of the adaptive policy:
// the element-wise better of update and invalidation as chosen by
// ShouldUpdate. (The omniscient bound is below; Adaptive commits to one
// mechanism per key, which is exactly what the decision rule picks.)
func (p Params) AdaptiveCosts() Costs {
	if p.ShouldUpdate() {
		return p.UpdateCosts()
	}
	return p.InvalidateCosts()
}

// OptimalCosts returns the omniscient policy's expected costs (§3.2's gap
// analysis reference): freshness work is only ever forced when a write is
// eventually followed by a read; intervals with neither read nor write are
// skipped, and a write-only interval supersedes the pending work for free.
// Per forced episode the omniscient pays the cheaper of refreshing
// proactively (c_u) or invalidating and eating the miss (c_i + c_m):
//
//	C_F = (T′/T) · P_W·P_R/(P_R+P_W−P_R·P_W) · min(c_u, c_i+c_m)
//
// C_S is zero when updating wins and one stale miss per episode otherwise
// (Opt minimizes throughput overhead only, per §3.4).
func (p Params) OptimalCosts() Costs {
	pr, pw := p.PR(), p.PW()
	den := pr + pw - pr*pw
	var cf, cs float64
	if den > 0 {
		// Probability the next non-empty interval contains a read
		// (reads and writes can co-occur; a read forces the work).
		episodes := p.intervals() * pw * pr / den
		if p.Cu <= p.Ci+p.Cm {
			cf = episodes * p.Cu
		} else {
			cf = episodes * (p.Ci + p.Cm)
			cs = episodes
		}
	}
	return p.normalize(cf, cs)
}

// PolicyCosts dispatches to the closed form for pl. Adaptive and
// AdaptiveCS share the model prediction (cache-state knowledge only
// affects constants the model does not capture); Optimal uses the
// omniscient bound.
func (p Params) PolicyCosts(pl Policy) (Costs, error) {
	if err := p.Validate(); err != nil {
		return Costs{}, err
	}
	switch pl {
	case TTLExpiry:
		return p.TTLExpiryCosts(), nil
	case TTLPolling:
		return p.TTLPollingCosts(), nil
	case Invalidate:
		return p.InvalidateCosts(), nil
	case Update:
		return p.UpdateCosts(), nil
	case Adaptive, AdaptiveCS:
		return p.AdaptiveCosts(), nil
	case Optimal:
		return p.OptimalCosts(), nil
	default:
		return Costs{}, fmt.Errorf("model: unknown policy %v", pl)
	}
}
