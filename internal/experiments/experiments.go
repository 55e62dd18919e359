// Package experiments regenerates every table and figure in the paper's
// evaluation:
//
//	Fig2   — TTL-expiry normalized staleness cost vs staleness bound
//	Fig3   — TTL-polling normalized freshness cost vs staleness bound
//	Fig5   — policy comparison (C′_F and C′_S) across four workloads
//	Fig6   — sketch latency / decision accuracy / storage saving
//	Table1 — c_m/c_i/c_u breakdown from measured primitives
//	Sec31  — the §3.1 worked example
//
// Each experiment returns plain row structs; cmd/freshbench prints them
// and bench_test.go wraps them in testing.B benchmarks. Absolute numbers
// depend on the synthetic workloads (package workload's stand-ins for the
// production traces); the shapes — who wins, by what order of magnitude,
// where the curves bend — are the reproduction targets.
package experiments

import (
	"fmt"
	"time"

	"freshcache/internal/costmodel"
	"freshcache/internal/model"
	"freshcache/internal/simulate"
	"freshcache/internal/sketch"
	"freshcache/internal/workload"
	"freshcache/internal/xrand"
)

// Options scales the experiments. The zero value selects the full-size
// defaults; tests and quick benchmarks shrink Duration.
type Options struct {
	// Duration is the trace length in virtual seconds; defaults to 300.
	Duration float64
	// Seed selects the deterministic random streams; defaults to 1.
	Seed uint64
	// Bounds is the staleness-bound sweep for Fig 2/3; defaults to
	// {0.1, 0.3, 1, 3, 10, 30}.
	Bounds []float64
	// T is the staleness bound for Fig 5/6; defaults to 0.5s.
	T float64
	// Costs is the abstract cost vector; zero selects DefaultSim.
	Costs costmodel.Costs
}

func (o Options) fill() Options {
	if o.Duration <= 0 {
		o.Duration = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Bounds) == 0 {
		o.Bounds = []float64{0.1, 0.3, 1, 3, 10, 30}
	}
	if o.T <= 0 {
		o.T = 0.5
	}
	if o.Costs == (costmodel.Costs{}) {
		o.Costs = costmodel.DefaultSim()
	}
	return o
}

// sweepWorkloads are the three §2.2 workloads of Figures 2 and 3.
var sweepWorkloads = []string{"poisson", "meta-like", "twitter-like"}

// capacityFor sizes the cache at 60% of the key universe — "limited
// cache capacity" per §2.2 — so eviction pressure is present but staleness
// effects dominate. Used for the Figure 5 policy comparison.
func capacityFor(tr *workload.Trace) int {
	c := tr.NumKeys * 6 / 10
	if c < 8 {
		c = 8
	}
	return c
}

// sweepCapacityFor sizes the Figure 2/3 cache at 90% of the key universe:
// capacity is still limited (the §2.1 additivity assumption is being
// stress-tested), but cold-tail churn does not convert the staleness
// misses the model predicts into capacity misses it does not model.
func sweepCapacityFor(tr *workload.Trace) int {
	c := tr.NumKeys * 9 / 10
	if c < 8 {
		c = 8
	}
	return c
}

// CurvePoint is one (workload, T) sample of a Fig 2/3 curve.
type CurvePoint struct {
	Workload string
	T        float64
	Sim      float64 // simulator measurement
	Theory   float64 // analytical model prediction
}

// Fig2 reproduces Figure 2: C′_S of TTL-expiry versus the staleness
// bound, simulation against theory, for the three sweep workloads.
func Fig2(o Options) ([]CurvePoint, error) {
	return sweep(o, model.TTLExpiry, func(r simulate.Result) float64 { return r.CSNorm },
		func(cf, cs float64) float64 { return cs })
}

// Fig3 reproduces Figure 3: C′_F of TTL-polling versus the staleness
// bound, simulation against theory.
func Fig3(o Options) ([]CurvePoint, error) {
	return sweep(o, model.TTLPolling, func(r simulate.Result) float64 { return r.CFNorm },
		func(cf, cs float64) float64 { return cf })
}

func sweep(o Options, pl model.Policy, pick func(simulate.Result) float64,
	pickTheory func(cf, cs float64) float64) ([]CurvePoint, error) {
	o = o.fill()
	var out []CurvePoint
	for _, name := range sweepWorkloads {
		tr, err := workload.Standard(name, o.Duration, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: workload %s: %w", name, err)
		}
		cap := sweepCapacityFor(tr)
		for _, T := range o.Bounds {
			res, err := simulate.Run(simulate.Config{
				T: T, Capacity: cap, Costs: o.Costs, Policy: pl,
				DisableFreshnessCheck: true,
			}, tr)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s T=%v: %w", name, T, err)
			}
			cf, cs, err := simulate.Theory(tr, T, o.Costs, pl)
			if err != nil {
				return nil, fmt.Errorf("experiments: theory %s T=%v: %w", name, T, err)
			}
			out = append(out, CurvePoint{
				Workload: name, T: T, Sim: pick(res), Theory: pickTheory(cf, cs),
			})
		}
	}
	return out, nil
}

// Fig5Row is one (workload, policy) bar pair of Figure 5.
type Fig5Row struct {
	Workload string
	Policy   model.Policy
	CFNorm   float64 // blue bar (×, log scale in the paper)
	CSNorm   float64 // green bar (%)
	Result   simulate.Result
}

// fig5Policies in paper order: TTL exp., TTL poll., Inv., Up., Adpt.,
// Adpt.+C.S., Opt.
var fig5Policies = []model.Policy{
	model.TTLExpiry, model.TTLPolling, model.Invalidate, model.Update,
	model.Adaptive, model.AdaptiveCS, model.Optimal,
}

// Fig5 reproduces Figure 5: normalized freshness and staleness costs of
// the seven policies over the four evaluation workloads, throughput as
// the only objective (§3.4).
func Fig5(o Options) ([]Fig5Row, error) {
	o = o.fill()
	var out []Fig5Row
	for _, name := range workload.StandardNames() {
		tr, err := workload.Standard(name, o.Duration, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: workload %s: %w", name, err)
		}
		cap := capacityFor(tr)
		for _, pl := range fig5Policies {
			res, err := simulate.Run(simulate.Config{
				T: o.T, Capacity: cap, Costs: o.Costs, Policy: pl,
				DisableFreshnessCheck: true,
			}, tr)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%v: %w", name, pl, err)
			}
			out = append(out, Fig5Row{
				Workload: name, Policy: pl,
				CFNorm: res.CFNorm, CSNorm: res.CSNorm, Result: res,
			})
		}
	}
	return out, nil
}

// Fig6Row is one (workload, sketch) sample of Figure 6.
type Fig6Row struct {
	Workload string
	Sketch   string
	// LatencyUS is the measured per-operation cost (observe+decide) in
	// microseconds, to compare against the 350µs network reference.
	LatencyUS float64
	// Accuracy is the fraction of write-time update-vs-invalidate
	// decisions that match exact tracking.
	Accuracy float64
	// StorageSaving is exact-tracking bytes over this sketch's bytes.
	StorageSaving float64
	// Bytes is the sketch's resident footprint after the trace.
	Bytes int
}

// NetworkReferenceUS is the network delay reference line of Figure 6a.
const NetworkReferenceUS = 350.0

// fig6Sketches builds the three trackers in paper order. Geometries
// follow §3.3: Count-Min sized well below the key count to show
// collision-induced mispredictions; Top-K with exact slots for ~5% of
// keys over the same tail.
func fig6Sketches(keys int) []func() sketch.Tracker {
	cmWidth := keys / 4
	if cmWidth < 64 {
		cmWidth = 64
	}
	topK := keys / 20
	if topK < 16 {
		topK = 16
	}
	return []func() sketch.Tracker{
		func() sketch.Tracker { return sketch.NewExact() },
		func() sketch.Tracker { return sketch.MustCountMin(cmWidth, 4) },
		func() sketch.Tracker { return sketch.MustTopK(topK, cmWidth, 4) },
	}
}

// Fig6 reproduces Figure 6: latency overhead, decision accuracy, and
// storage saving of the three E[W] trackers across the four workloads.
func Fig6(o Options) ([]Fig6Row, error) {
	o = o.fill()
	var out []Fig6Row
	for _, name := range workload.StandardNames() {
		tr, err := workload.Standard(name, o.Duration, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: workload %s: %w", name, err)
		}
		rows, err := fig6ForTrace(tr, o)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

func fig6ForTrace(tr *workload.Trace, o Options) ([]Fig6Row, error) {
	// Ground truth: exact tracker decisions at every write.
	exact := sketch.NewExact()
	builders := fig6Sketches(tr.NumKeys)
	trackers := make([]sketch.Tracker, len(builders))
	for i, mk := range builders {
		trackers[i] = mk()
	}
	agree := make([]uint64, len(trackers))
	var writes uint64
	warmup := len(tr.Requests) / 10

	decide := func(t sketch.Tracker, key uint64) bool {
		return t.EW(key)*o.Costs.Cu < o.Costs.Cm+o.Costs.Ci
	}

	for i, req := range tr.Requests {
		if req.Op == workload.OpWrite && i >= warmup {
			writes++
			want := decide(exact, req.Key)
			for j, t := range trackers {
				if decide(t, req.Key) == want {
					agree[j]++
				}
			}
		}
		if req.Op == workload.OpRead {
			exact.ObserveRead(req.Key)
			for _, t := range trackers {
				t.ObserveRead(req.Key)
			}
		} else {
			exact.ObserveWrite(req.Key)
			for _, t := range trackers {
				t.ObserveWrite(req.Key)
			}
		}
	}

	exactBytes := exact.Bytes()
	rows := make([]Fig6Row, 0, len(trackers))
	for j, t := range trackers {
		lat := measureSketchLatency(builders[j], tr)
		acc := 1.0
		if writes > 0 {
			acc = float64(agree[j]) / float64(writes)
		}
		saving := 1.0
		if b := t.Bytes(); b > 0 {
			saving = float64(exactBytes) / float64(b)
		}
		rows = append(rows, Fig6Row{
			Workload: tr.Name, Sketch: t.Name(),
			LatencyUS: lat, Accuracy: acc,
			StorageSaving: saving, Bytes: t.Bytes(),
		})
	}
	return rows, nil
}

// measureSketchLatency times observe+EW over a slice of the trace.
func measureSketchLatency(mk func() sketch.Tracker, tr *workload.Trace) float64 {
	t := mk()
	n := len(tr.Requests)
	if n > 200000 {
		n = 200000
	}
	if n == 0 {
		return 0
	}
	// Warm the structures so steady-state cost is measured.
	for _, req := range tr.Requests[:n] {
		if req.Op == workload.OpRead {
			t.ObserveRead(req.Key)
		} else {
			t.ObserveWrite(req.Key)
		}
	}
	start := time.Now()
	var sink float64
	for _, req := range tr.Requests[:n] {
		if req.Op == workload.OpRead {
			t.ObserveRead(req.Key)
		} else {
			t.ObserveWrite(req.Key)
			sink += t.EW(req.Key)
		}
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// Table1Row is one cost parameter's breakdown.
type Table1Row struct {
	Parameter  string  // "c_m", "c_i", "c_u"
	CacheSide  float64 // µs at the cache
	StoreSide  float64 // µs at the data store
	Total      float64
	Definition string // the Table 1 formula
}

// Table1Result carries the measured primitives and the derived rows.
type Table1Result struct {
	Primitives costmodel.Primitives
	KeySize    int
	ValSize    int
	Rows       []Table1Row
}

// Table1 reproduces Table 1 with primitives measured on this machine
// (in-process serialization and map-op timings, §3.3).
func Table1(keySize, valSize int) Table1Result {
	if keySize <= 0 {
		keySize = 16
	}
	if valSize <= 0 {
		valSize = 256
	}
	p := costmodel.MeasuredPrimitives(1 << 14)
	c := p.ForCPU(keySize, valSize)
	return Table1Result{
		Primitives: p, KeySize: keySize, ValSize: valSize,
		Rows: []Table1Row{
			{"c_m", c.MissCache, c.MissStore, c.Cm,
				"cache: ser(K)+deser(K+V)+update | store: deser(K)+read+ser(K+V)"},
			{"c_i", c.InvalidateCache, c.InvalidateStore, c.Ci,
				"cache: deser(K)+delete | store: ser(K)"},
			{"c_u", c.UpdateCache, c.UpdateStore, c.Cu,
				"cache: deser(K+V)+update | store: ser(K+V)"},
		},
	}
}

// Sec31Result carries the §3.1 worked-example comparison.
type Sec31Result struct {
	InvalidationCoeff float64 // coefficient of (c_i+c_m); paper: 0.00892
	TTLExpiryCoeff    float64 // coefficient of c_m; paper: 0.086
}

// Sec31 evaluates the §3.1 worked example (λ=1, r=0.9, T=0.1, T′=T).
func Sec31() Sec31Result {
	p := model.Params{Lambda: 1, R: 0.9, T: 0.1, Cm: 1, Ci: 1, Cu: 1}
	inv := p.InvalidateCosts()
	exp := p.TTLExpiryCosts()
	return Sec31Result{InvalidationCoeff: inv.CF / 2, TTLExpiryCoeff: exp.CF}
}

// AblationRow is one configuration of the batching/sketch ablation.
type AblationRow struct {
	Name   string
	CFNorm float64
	CSNorm float64
	Extra  string
}

// AblateBatching sweeps the batching interval for the adaptive policy on
// the mix workload, quantifying how much write coalescing buys (a §5
// design question: smaller T means fresher data but less batching).
func AblateBatching(o Options) ([]AblationRow, error) {
	o = o.fill()
	tr, err := workload.Standard("poisson-mix", o.Duration, o.Seed)
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, T := range o.Bounds {
		res, err := simulate.Run(simulate.Config{
			T: T, Capacity: capacityFor(tr), Costs: o.Costs,
			Policy: model.Adaptive, DisableFreshnessCheck: true,
		}, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Name:   fmt.Sprintf("T=%gs", T),
			CFNorm: res.CFNorm, CSNorm: res.CSNorm,
			Extra: fmt.Sprintf("inv=%d upd=%d", res.Invalidations, res.Updates),
		})
	}
	return out, nil
}

// AblateDecisionRule compares the full §3.2 rule against the E[W]
// approximation (with each tracker) on every standard workload.
func AblateDecisionRule(o Options) ([]AblationRow, error) {
	o = o.fill()
	var out []AblationRow
	for _, name := range workload.StandardNames() {
		tr, err := workload.Standard(name, o.Duration, o.Seed)
		if err != nil {
			return nil, err
		}
		cap := capacityFor(tr)
		run := func(label string, cfg simulate.Config) error {
			cfg.T = o.T
			cfg.Capacity = cap
			cfg.Costs = o.Costs
			cfg.Policy = model.Adaptive
			cfg.DisableFreshnessCheck = true
			res, err := simulate.Run(cfg, tr)
			if err != nil {
				return err
			}
			out = append(out, AblationRow{
				Name:   name + "/" + label,
				CFNorm: res.CFNorm, CSNorm: res.CSNorm,
				Extra: fmt.Sprintf("inv=%d upd=%d", res.Invalidations, res.Updates),
			})
			return nil
		}
		if err := run("full-rule", simulate.Config{}); err != nil {
			return nil, err
		}
		if err := run("ew-exact", simulate.Config{UseEWTracker: true}); err != nil {
			return nil, err
		}
		if err := run("ew-topk", simulate.Config{UseEWTracker: true,
			NewTracker: func() sketch.Tracker { return sketch.MustTopK(256, 4096, 4) }}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AblateCacheKnowledge quantifies the Adpt. vs Adpt.+C.S. gap (wasted
// messages to non-resident keys) per workload.
func AblateCacheKnowledge(o Options) ([]AblationRow, error) {
	o = o.fill()
	var out []AblationRow
	for _, name := range workload.StandardNames() {
		tr, err := workload.Standard(name, o.Duration, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, pl := range []model.Policy{model.Adaptive, model.AdaptiveCS} {
			res, err := simulate.Run(simulate.Config{
				T: o.T, Capacity: capacityFor(tr), Costs: o.Costs, Policy: pl,
				DisableFreshnessCheck: true,
			}, tr)
			if err != nil {
				return nil, err
			}
			out = append(out, AblationRow{
				Name:   name + "/" + pl.String(),
				CFNorm: res.CFNorm, CSNorm: res.CSNorm,
				Extra: fmt.Sprintf("wasted-inv=%d wasted-upd=%d",
					res.WastedInvalidations, res.WastedUpdates),
			})
		}
	}
	return out, nil
}

// ShuffledSeeds derives n distinct seeds from a base seed for
// repeated-trial experiments.
func ShuffledSeeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = xrand.SplitMix64(base + uint64(i))
	}
	return out
}
