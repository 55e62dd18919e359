package main

import (
	"fmt"
	"slices"
	"time"

	"freshcache/internal/workload"
)

// op is one generated request: a GET/PUT of keys[0], or on a batched
// workload an MGET/MPUT of all of keys.
type op struct {
	due   time.Duration // offset from the phase start (open loop only)
	write bool
	keys  []uint32
}

// genOps builds the request list for one phase from an internal/workload
// trace: seconds of traffic at rate ops/s. The seed flows into
// PoissonSpec.Seed / MixSpec.Seed and nowhere else; the servers see only
// the generated requests.
func genOps(w *workloadSpec, seed uint64, rate, seconds float64) ([]op, error) {
	keyRate := rate
	if w.batch {
		keyRate *= batchKeys
	}
	var (
		tr  *workload.Trace
		err error
	)
	if w.mix {
		tr, err = workload.Mix(workload.MixSpec{
			Rate: keyRate / 2, KeysPerComponent: w.keys / 2, Zipf: w.zipf,
			ReadHeavyRatio: 0.95, WriteHeavyRatio: 0.25,
			Duration: seconds, Seed: seed,
		})
	} else {
		tr, err = workload.Poisson(workload.PoissonSpec{
			Rate: keyRate, Keys: w.keys, Zipf: w.zipf, ReadRatio: w.readRatio,
			Duration: seconds, Seed: seed,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	at := func(r workload.Request) time.Duration { return time.Duration(r.At * float64(time.Second)) }

	if !w.batch {
		ops := make([]op, len(tr.Requests))
		backing := make([]uint32, len(tr.Requests))
		for i, r := range tr.Requests {
			backing[i] = uint32(r.Key)
			ops[i] = op{due: at(r), write: r.Op == workload.OpWrite, keys: backing[i : i+1]}
		}
		return ops, nil
	}

	// Consecutive trace reads (and, separately, writes) are grouped in
	// batchKeys; a batch is due when its last member arrives. Duplicate
	// keys inside one group are dropped from it: a batch names each key
	// once, the way a scan would.
	var (
		ops   []op
		group [2][]uint32
	)
	for _, r := range tr.Requests {
		g := &group[r.Op]
		if slices.Contains(*g, uint32(r.Key)) {
			continue
		}
		*g = append(*g, uint32(r.Key))
		if len(*g) == batchKeys {
			ops = append(ops, op{due: at(r), write: r.Op == workload.OpWrite, keys: *g})
			*g = nil
		}
	}
	return ops, nil
}
