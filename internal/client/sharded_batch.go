package client

import (
	"sync"

	"freshcache/internal/proto"
)

// MGet fetches every key from its owning shard: the batch is split by
// shard in one ring pass, the per-shard sub-batches fan out
// concurrently, and the results reassemble in request order. A shard's
// failure marks only its own keys' Err — the rest of the batch
// succeeds — and, when a ring refresh reroutes the failed shard's keys,
// exactly those keys are retried against their new owners.
func (s *Sharded) MGet(keys []string) []MGetResult {
	res, _ := s.mgetScatter(keys, 0, false)
	return res
}

// MFillTraced is the cache-internal batch miss fill: like MGet but each
// store records cache fills rather than client reads. traceID rides on
// the wire (0 = untraced) and the traces come back one per contacted
// shard (nil for shards that contributed no keys or whose response
// carried no trace), so a relay can add the per-shard fan-out as
// sibling hops.
func (s *Sharded) MFillTraced(keys []string, traceID uint64) ([]MGetResult, []*proto.Trace) {
	return s.mgetScatter(keys, traceID, true)
}

// MPut writes every key through its owning shard with the same
// scatter/gather and per-key failover contract as MGet.
func (s *Sharded) MPut(keys []string, values [][]byte) []MPutResult {
	res, _ := s.mputScatter(keys, values, 0)
	return res
}

// MPutTraced is MPut carrying traceID on the wire (0 = untraced), with
// one downstream trace per contacted shard.
func (s *Sharded) MPutTraced(keys []string, values [][]byte, traceID uint64) ([]MPutResult, []*proto.Trace) {
	return s.mputScatter(keys, values, traceID)
}

// subBatch is one shard's slice of a scattered batch: the keys routed
// to it and their indices in the original request (plus the values, for
// writes).
type subBatch struct {
	keys []string
	vals [][]byte // writes only
	idx  []int
}

// partition splits keys (and, when non-nil, values) by ring owner in
// one ring pass over the single routing view v, so a concurrent ring
// swap can never split one batch across two routing generations.
func partition(v *shardView, keys []string, values [][]byte) []subBatch {
	parts := make([]subBatch, len(v.clients))
	for i, k := range keys {
		sh := v.r.Owner(k)
		parts[sh].keys = append(parts[sh].keys, k)
		parts[sh].idx = append(parts[sh].idx, i)
		if values != nil {
			parts[sh].vals = append(parts[sh].vals, values[i])
		}
	}
	return parts
}

func (s *Sharded) mgetScatter(keys []string, traceID uint64, fill bool) ([]MGetResult, []*proto.Trace) {
	out := make([]MGetResult, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	t := proto.MsgMGet
	if fill {
		t = proto.MsgMFill
	}
	v := s.v.Load()
	parts := partition(v, keys, nil)
	traces := make([]*proto.Trace, len(v.clients))
	run := func(sh int) {
		p := parts[sh]
		res, tr, err := v.clients[sh].mget(t, p.keys, traceID)
		traces[sh] = tr
		if err == nil {
			for j, i := range p.idx {
				out[i] = res[j]
			}
			return
		}
		if failoverWorthy(err) && s.refreshRing() {
			s.retryMGet(t, v.clients[sh], p, out, err, sh, v)
			return
		}
		se := ShardError{Shard: sh, Addr: v.r.Node(sh), Err: err}
		for _, i := range p.idx {
			out[i] = MGetResult{Err: se}
		}
	}
	fanOut(parts, run)
	return out, traces
}

// retryMGet reroutes the failed shard's keys through the refreshed ring
// and retries once against each owner that changed; keys whose owner
// did not change keep the original error. Every slot of the failed part
// is filled — the goroutines of a scatter write disjoint index sets.
func (s *Sharded) retryMGet(t proto.MsgType, failed *Client, p subBatch, out []MGetResult, origErr error, origShard int, origView *shardView) {
	v2 := s.v.Load()
	parts2 := partition(v2, p.keys, nil)
	run := func(sh int) {
		p2 := parts2[sh]
		se := ShardError{Shard: origShard, Addr: origView.r.Node(origShard), Err: origErr}
		if v2.clients[sh] == failed {
			for _, li := range p2.idx {
				out[p.idx[li]] = MGetResult{Err: se}
			}
			return
		}
		s.failovers.Add(1)
		res, _, err := v2.clients[sh].mget(t, p2.keys, 0)
		if err != nil {
			se2 := ShardError{Shard: sh, Addr: v2.r.Node(sh), Err: err}
			for _, li := range p2.idx {
				out[p.idx[li]] = MGetResult{Err: se2}
			}
			return
		}
		for j, li := range p2.idx {
			out[p.idx[li]] = res[j]
		}
	}
	fanOut(parts2, run)
}

func (s *Sharded) mputScatter(keys []string, values [][]byte, traceID uint64) ([]MPutResult, []*proto.Trace) {
	out := make([]MPutResult, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	v := s.v.Load()
	parts := partition(v, keys, values)
	traces := make([]*proto.Trace, len(v.clients))
	run := func(sh int) {
		p := parts[sh]
		res, tr, err := v.clients[sh].mput(p.keys, p.vals, traceID)
		traces[sh] = tr
		if err == nil {
			for j, i := range p.idx {
				out[i] = res[j]
			}
			return
		}
		// A failed MPUT sub-batch may have reached the old owner's wire;
		// like keyCall's PUT failover, re-applying the same values under
		// newer versions is absorbed by the version-ordered stores.
		if failoverWorthy(err) && s.refreshRing() {
			s.retryMPut(v.clients[sh], p, out, err, sh, v)
			return
		}
		se := ShardError{Shard: sh, Addr: v.r.Node(sh), Err: err}
		for _, i := range p.idx {
			out[i] = MPutResult{Err: se}
		}
	}
	fanOut(parts, run)
	return out, traces
}

// retryMPut is retryMGet's write-side twin.
func (s *Sharded) retryMPut(failed *Client, p subBatch, out []MPutResult, origErr error, origShard int, origView *shardView) {
	v2 := s.v.Load()
	parts2 := partition(v2, p.keys, p.vals)
	run := func(sh int) {
		p2 := parts2[sh]
		se := ShardError{Shard: origShard, Addr: origView.r.Node(origShard), Err: origErr}
		if v2.clients[sh] == failed {
			for _, li := range p2.idx {
				out[p.idx[li]] = MPutResult{Err: se}
			}
			return
		}
		s.failovers.Add(1)
		res, _, err := v2.clients[sh].mput(p2.keys, p2.vals, 0)
		if err != nil {
			se2 := ShardError{Shard: sh, Addr: v2.r.Node(sh), Err: err}
			for _, li := range p2.idx {
				out[p.idx[li]] = MPutResult{Err: se2}
			}
			return
		}
		for j, li := range p2.idx {
			out[p.idx[li]] = res[j]
		}
	}
	fanOut(parts2, run)
}

// fanOut runs run(sh) for every non-empty part — inline when only one
// shard is involved (the common case for small batches and the whole
// single-shard deployment), concurrently otherwise.
func fanOut(parts []subBatch, run func(sh int)) {
	active := 0
	last := -1
	for sh := range parts {
		if len(parts[sh].keys) > 0 {
			active++
			last = sh
		}
	}
	if active == 0 {
		return
	}
	if active == 1 {
		run(last)
		return
	}
	var wg sync.WaitGroup
	for sh := range parts {
		if len(parts[sh].keys) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			run(sh)
		}(sh)
	}
	wg.Wait()
}
