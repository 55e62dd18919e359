package workload

import (
	"fmt"
	"math"

	"freshcache/internal/xrand"
)

// PoissonSpec configures the synthetic Poisson workload of §2.2: aggregate
// Poisson arrivals spread over a Zipf-popular key universe, each request
// independently a read with probability ReadRatio.
type PoissonSpec struct {
	// Rate is the aggregate arrival rate in requests/second. With the
	// paper's per-object λ=10 and Keys=100 under Zipf skew, Rate=1000
	// gives a mean per-key rate of 10.
	Rate float64
	// Keys is the key universe size.
	Keys int
	// Zipf is the popularity exponent s (the paper uses 1.3).
	Zipf float64
	// ReadRatio is the read probability r.
	ReadRatio float64
	// Duration is the trace length in seconds.
	Duration float64
	// Seed makes the trace reproducible.
	Seed uint64
}

// DefaultPoisson is the §2.2 configuration: λ·N = 10·100, Zipf 1.3, r=0.9.
func DefaultPoisson(duration float64, seed uint64) PoissonSpec {
	return PoissonSpec{Rate: 1000, Keys: 100, Zipf: 1.3, ReadRatio: 0.9, Duration: duration, Seed: seed}
}

func (s PoissonSpec) validate() error {
	switch {
	case !(s.Rate > 0):
		return fmt.Errorf("workload: rate must be positive, got %v", s.Rate)
	case s.Keys <= 0:
		return fmt.Errorf("workload: keys must be positive, got %d", s.Keys)
	case s.Zipf < 0:
		return fmt.Errorf("workload: zipf exponent must be ≥ 0, got %v", s.Zipf)
	case s.ReadRatio < 0 || s.ReadRatio > 1:
		return fmt.Errorf("workload: read ratio must be in [0,1], got %v", s.ReadRatio)
	case !(s.Duration > 0):
		return fmt.Errorf("workload: duration must be positive, got %v", s.Duration)
	}
	return nil
}

// Poisson generates the synthetic Poisson workload.
func Poisson(spec PoissonSpec) (*Trace, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(spec.Seed, 1)
	zipf := xrand.NewZipf(rng, spec.Zipf, spec.Keys)
	tr := &Trace{
		Name:     "poisson",
		NumKeys:  spec.Keys,
		Duration: spec.Duration,
		KeySize:  16,
		ValSize:  128,
	}
	tr.Requests = make([]Request, 0, int(spec.Rate*spec.Duration))
	for t := rng.Exp(spec.Rate); t < spec.Duration; t += rng.Exp(spec.Rate) {
		op := OpWrite
		if rng.Bool(spec.ReadRatio) {
			op = OpRead
		}
		tr.Requests = append(tr.Requests, Request{At: t, Key: uint64(zipf.Sample()), Op: op})
	}
	return tr, nil
}

// MixSpec configures the §3.4 "Poisson (Mix)" workload: a 50-50 blend of a
// read-heavy and a write-heavy Poisson stream over disjoint key ranges,
// modeling a cache shared across applications.
type MixSpec struct {
	// Rate is the aggregate rate of EACH component stream.
	Rate float64
	// KeysPerComponent is each component's universe size; components get
	// disjoint ranges [0,K) and [K,2K).
	KeysPerComponent int
	// Zipf is the shared popularity exponent.
	Zipf float64
	// ReadHeavyRatio and WriteHeavyRatio are the two components' read
	// probabilities.
	ReadHeavyRatio, WriteHeavyRatio float64
	Duration                        float64
	Seed                            uint64
}

// DefaultMix mirrors DefaultPoisson with a read-heavy (r=0.95) and a
// write-heavy (r=0.25) half.
func DefaultMix(duration float64, seed uint64) MixSpec {
	return MixSpec{
		Rate: 500, KeysPerComponent: 50, Zipf: 1.3,
		ReadHeavyRatio: 0.95, WriteHeavyRatio: 0.25,
		Duration: duration, Seed: seed,
	}
}

// Mix generates the blended workload.
func Mix(spec MixSpec) (*Trace, error) {
	mk := func(r float64, seed uint64, offset uint64) (*Trace, error) {
		t, err := Poisson(PoissonSpec{
			Rate: spec.Rate, Keys: spec.KeysPerComponent, Zipf: spec.Zipf,
			ReadRatio: r, Duration: spec.Duration, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		for i := range t.Requests {
			t.Requests[i].Key += offset
		}
		t.NumKeys = spec.KeysPerComponent * 2
		return t, nil
	}
	rh, err := mk(spec.ReadHeavyRatio, spec.Seed, 0)
	if err != nil {
		return nil, fmt.Errorf("workload: mix read-heavy half: %w", err)
	}
	wh, err := mk(spec.WriteHeavyRatio, spec.Seed+0x9E3779B9, uint64(spec.KeysPerComponent))
	if err != nil {
		return nil, fmt.Errorf("workload: mix write-heavy half: %w", err)
	}
	out := Merge("poisson-mix", rh, wh)
	return out, nil
}

// MetaLikeSpec configures the synthetic stand-in for the Meta/CacheLib
// production workload: heavy popularity skew, read-dominant traffic, and
// bursty ON/OFF arrival modulation.
type MetaLikeSpec struct {
	Rate      float64 // mean aggregate rate (req/s)
	Keys      int
	Zipf      float64
	ReadRatio float64
	// BurstFactor multiplies the rate during ON bursts; MeanBurst and
	// MeanCalm are the exponential mean durations of ON and OFF phases.
	BurstFactor         float64
	MeanBurst, MeanCalm float64
	Duration            float64
	Seed                uint64
}

// DefaultMetaLike uses Zipf 0.9 over 5000 keys, r=0.97, 3× bursts.
func DefaultMetaLike(duration float64, seed uint64) MetaLikeSpec {
	return MetaLikeSpec{
		Rate: 2000, Keys: 5000, Zipf: 0.9, ReadRatio: 0.97,
		BurstFactor: 3, MeanBurst: 2, MeanCalm: 8,
		Duration: duration, Seed: seed,
	}
}

// MetaLike generates the Meta-style workload.
func MetaLike(spec MetaLikeSpec) (*Trace, error) {
	base := PoissonSpec{Rate: spec.Rate, Keys: spec.Keys, Zipf: spec.Zipf,
		ReadRatio: spec.ReadRatio, Duration: spec.Duration, Seed: spec.Seed}
	if err := base.validate(); err != nil {
		return nil, err
	}
	if spec.BurstFactor < 1 {
		return nil, fmt.Errorf("workload: burst factor must be ≥ 1, got %v", spec.BurstFactor)
	}
	rng := xrand.New(spec.Seed, 2)
	zipf := xrand.NewZipf(rng, spec.Zipf, spec.Keys)
	tr := &Trace{
		Name:     "meta-like",
		NumKeys:  spec.Keys,
		Duration: spec.Duration,
		KeySize:  24,
		ValSize:  256,
	}
	tr.Requests = make([]Request, 0, int(spec.Rate*spec.Duration))
	// ON/OFF modulated Poisson: phase changes at exponential epochs.
	inBurst := false
	phaseEnd := rng.Exp(1 / spec.MeanCalm)
	now := 0.0
	for {
		rate := spec.Rate
		if inBurst {
			rate *= spec.BurstFactor
		}
		now += rng.Exp(rate)
		for now >= phaseEnd {
			inBurst = !inBurst
			mean := spec.MeanCalm
			if inBurst {
				mean = spec.MeanBurst
			}
			phaseEnd += rng.Exp(1 / mean)
		}
		if now >= spec.Duration {
			break
		}
		op := OpWrite
		if rng.Bool(spec.ReadRatio) {
			op = OpRead
		}
		tr.Requests = append(tr.Requests, Request{At: now, Key: uint64(zipf.Sample()), Op: op})
	}
	return tr, nil
}

// TwitterLikeSpec configures the synthetic stand-in for the Twitter
// production workloads of Yang et al. (TOS'21): per-key behavior classes
// spanning read-heavy to write-heavy clusters, Zipf popularity, and
// diurnal rate modulation.
type TwitterLikeSpec struct {
	Rate float64
	Keys int
	Zipf float64
	// Classes describe the key population mixture; weights need not sum
	// to 1 (they are normalized).
	Classes []KeyClass
	// DiurnalAmplitude ∈ [0,1) scales a sinusoidal rate modulation with
	// period DiurnalPeriod seconds.
	DiurnalAmplitude float64
	DiurnalPeriod    float64
	Duration         float64
	Seed             uint64
}

// KeyClass assigns a read ratio to a fraction of the key universe.
type KeyClass struct {
	Weight    float64
	ReadRatio float64
}

// DefaultTwitterLike mirrors the published cluster spread: 60% of keys
// read-heavy (r=0.99), 25% balanced (r=0.7), 15% write-heavy (r=0.2),
// Zipf 1.2, mild diurnal swing.
func DefaultTwitterLike(duration float64, seed uint64) TwitterLikeSpec {
	return TwitterLikeSpec{
		Rate: 2000, Keys: 5000, Zipf: 1.2,
		Classes: []KeyClass{
			{Weight: 0.60, ReadRatio: 0.99},
			{Weight: 0.25, ReadRatio: 0.70},
			{Weight: 0.15, ReadRatio: 0.20},
		},
		DiurnalAmplitude: 0.3, DiurnalPeriod: 60,
		Duration: duration, Seed: seed,
	}
}

// TwitterLike generates the Twitter-style workload.
func TwitterLike(spec TwitterLikeSpec) (*Trace, error) {
	base := PoissonSpec{Rate: spec.Rate, Keys: spec.Keys, Zipf: spec.Zipf,
		ReadRatio: 0.5, Duration: spec.Duration, Seed: spec.Seed}
	if err := base.validate(); err != nil {
		return nil, err
	}
	if len(spec.Classes) == 0 {
		return nil, fmt.Errorf("workload: twitter-like needs at least one key class")
	}
	if spec.DiurnalAmplitude < 0 || spec.DiurnalAmplitude >= 1 {
		return nil, fmt.Errorf("workload: diurnal amplitude must be in [0,1), got %v", spec.DiurnalAmplitude)
	}
	var wsum float64
	for _, c := range spec.Classes {
		if c.Weight < 0 || c.ReadRatio < 0 || c.ReadRatio > 1 {
			return nil, fmt.Errorf("workload: bad key class %+v", c)
		}
		wsum += c.Weight
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("workload: key class weights sum to %v", wsum)
	}

	rng := xrand.New(spec.Seed, 3)
	// Assign each key a class. Keys are assigned independently so hot
	// (low-rank) keys land in classes proportionally to weight, matching
	// the observation that both read- and write-heavy Twitter clusters
	// contain hot keys.
	readRatio := make([]float64, spec.Keys)
	for k := range readRatio {
		u := rng.Float64() * wsum
		acc := 0.0
		readRatio[k] = spec.Classes[len(spec.Classes)-1].ReadRatio
		for _, c := range spec.Classes {
			acc += c.Weight
			if u < acc {
				readRatio[k] = c.ReadRatio
				break
			}
		}
	}
	zipf := xrand.NewZipf(rng, spec.Zipf, spec.Keys)
	tr := &Trace{
		Name:     "twitter-like",
		NumKeys:  spec.Keys,
		Duration: spec.Duration,
		KeySize:  32,
		ValSize:  200,
	}
	tr.Requests = make([]Request, 0, int(spec.Rate*spec.Duration))
	period := spec.DiurnalPeriod
	if period <= 0 {
		period = spec.Duration
	}
	// Thinning: generate at peak rate, accept with the modulated ratio.
	peak := spec.Rate * (1 + spec.DiurnalAmplitude)
	for t := rng.Exp(peak); t < spec.Duration; t += rng.Exp(peak) {
		instant := spec.Rate * (1 + spec.DiurnalAmplitude*math.Sin(2*math.Pi*t/period))
		if !rng.Bool(instant / peak) {
			continue
		}
		k := zipf.Sample()
		op := OpWrite
		if rng.Bool(readRatio[k]) {
			op = OpRead
		}
		tr.Requests = append(tr.Requests, Request{At: t, Key: uint64(k), Op: op})
	}
	return tr, nil
}

// Standard builds one of the four named evaluation workloads used across
// the experiment harness: "poisson", "poisson-mix", "meta-like",
// "twitter-like".
func Standard(name string, duration float64, seed uint64) (*Trace, error) {
	switch name {
	case "poisson":
		return Poisson(DefaultPoisson(duration, seed))
	case "poisson-mix":
		return Mix(DefaultMix(duration, seed))
	case "meta-like":
		return MetaLike(DefaultMetaLike(duration, seed))
	case "twitter-like":
		return TwitterLike(DefaultTwitterLike(duration, seed))
	default:
		return nil, fmt.Errorf("workload: unknown standard workload %q", name)
	}
}

// StandardNames lists the four evaluation workloads in paper order.
func StandardNames() []string {
	return []string{"poisson", "poisson-mix", "meta-like", "twitter-like"}
}
