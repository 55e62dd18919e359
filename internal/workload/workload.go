// Package workload defines the request traces that drive the freshness
// simulator and the live load generator, together with generators for the
// four workload families evaluated in the paper: a synthetic Poisson
// workload with Zipfian popularity, a 50-50 mix of read-heavy and
// write-heavy Poisson workloads, and synthetic stand-ins for the Meta and
// Twitter production traces.
//
// Traces are deterministic given a Spec's seed, ordered by virtual time
// (seconds since trace start), and serializable to a compact binary format
// as well as CSV.
package workload

import (
	"fmt"
	"sort"
)

// Op is the request operation.
type Op uint8

// Request operations. Reads are served from the cache; writes go to the
// backing store (cache-aside, Figure 1).
const (
	OpRead Op = iota
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is one trace event.
type Request struct {
	// At is the virtual timestamp in seconds since trace start.
	At float64
	// Key identifies the object (dense in [0, Trace.NumKeys)).
	Key uint64
	// Op is read or write.
	Op Op
}

// Trace is an ordered request sequence plus the metadata the simulator
// and the theory overlay need.
type Trace struct {
	// Name labels the workload family ("poisson", "poisson-mix",
	// "meta-like", "twitter-like", or caller-chosen).
	Name string
	// Requests, ordered by non-decreasing At.
	Requests []Request
	// NumKeys is the size of the key universe (keys are < NumKeys).
	NumKeys int
	// Duration is the virtual length in seconds.
	Duration float64
	// KeySize and ValSize are representative object sizes in bytes, used
	// by the cost model.
	KeySize, ValSize int
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// Validate checks trace well-formedness: ordering, key range, duration.
func (t *Trace) Validate() error {
	prev := -1.0
	for i, r := range t.Requests {
		if r.At < prev {
			return fmt.Errorf("workload: request %d at %v precedes %v", i, r.At, prev)
		}
		if r.At < 0 || r.At > t.Duration {
			return fmt.Errorf("workload: request %d at %v outside [0,%v]", i, r.At, t.Duration)
		}
		if t.NumKeys > 0 && r.Key >= uint64(t.NumKeys) {
			return fmt.Errorf("workload: request %d key %d outside universe %d", i, r.Key, t.NumKeys)
		}
		if r.Op != OpRead && r.Op != OpWrite {
			return fmt.Errorf("workload: request %d has bad op %d", i, r.Op)
		}
		prev = r.At
	}
	return nil
}

// KeyStat summarizes one key's activity in a trace.
type KeyStat struct {
	Key           uint64
	Reads, Writes uint64
}

// Rate returns the key's empirical request rate over the trace duration.
func (k KeyStat) Rate(duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(k.Reads+k.Writes) / duration
}

// ReadRatio returns the empirical read probability r̂ for the key, or 0
// with no events.
func (k KeyStat) ReadRatio() float64 {
	tot := k.Reads + k.Writes
	if tot == 0 {
		return 0
	}
	return float64(k.Reads) / float64(tot)
}

// PerKeyStats scans the trace once and returns stats for every key that
// appears, ordered by descending total count (hottest first). The theory
// overlay feeds these empirical (λ̂, r̂) into the analytical model, which
// is what lets the model lines track even the non-Poisson workloads.
func (t *Trace) PerKeyStats() []KeyStat {
	m := make(map[uint64]*KeyStat)
	for _, r := range t.Requests {
		s := m[r.Key]
		if s == nil {
			s = &KeyStat{Key: r.Key}
			m[r.Key] = s
		}
		if r.Op == OpRead {
			s.Reads++
		} else {
			s.Writes++
		}
	}
	out := make([]KeyStat, 0, len(m))
	for _, s := range m {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].Reads+out[i].Writes, out[j].Reads+out[j].Writes
		if ti != tj {
			return ti > tj
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Counts returns total reads and writes.
func (t *Trace) Counts() (reads, writes uint64) {
	for _, r := range t.Requests {
		if r.Op == OpRead {
			reads++
		} else {
			writes++
		}
	}
	return
}

// ReadRatio returns the overall fraction of reads.
func (t *Trace) ReadRatio() float64 {
	r, w := t.Counts()
	if r+w == 0 {
		return 0
	}
	return float64(r) / float64(r+w)
}

// Merge combines multiple traces into one time-ordered trace. Key spaces
// are NOT remapped; callers that need disjoint keys must offset them
// first (the mix generator does). The merged universe is the max of the
// inputs'.
func Merge(name string, traces ...*Trace) *Trace {
	out := &Trace{Name: name}
	total := 0
	for _, t := range traces {
		total += len(t.Requests)
		if t.NumKeys > out.NumKeys {
			out.NumKeys = t.NumKeys
		}
		if t.Duration > out.Duration {
			out.Duration = t.Duration
		}
		if t.KeySize > out.KeySize {
			out.KeySize = t.KeySize
		}
		if t.ValSize > out.ValSize {
			out.ValSize = t.ValSize
		}
	}
	out.Requests = make([]Request, 0, total)
	for _, t := range traces {
		out.Requests = append(out.Requests, t.Requests...)
	}
	sort.SliceStable(out.Requests, func(i, j int) bool {
		return out.Requests[i].At < out.Requests[j].At
	})
	return out
}
