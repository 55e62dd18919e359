package lb

import (
	"fmt"
	"sync"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// Multi-key routing. An MGET is split by cache affinity in one ring
// pass — each key goes to the same cache its single-key reads hash to,
// so batching never dilutes per-cache hit ratios — fanned out
// concurrently, and reassembled in request order. An MPUT goes through
// the sharded store client, which scatters by authority shard the same
// way. Traced batches record one sibling hop per contacted upstream,
// so the client's hop tree shows the fan-out.

// cachePart is one cache's slice of a scattered batch.
type cachePart struct {
	keys []string
	idx  []int
}

// routeMGet proxies a batched read to the affine caches. A sub-batch
// failure fails the whole request (like a single-key proxied read,
// errors are never downgraded to not-found); per-key not-founds answer
// as BatchInvalidate ops.
func (s *Server) routeMGet(m *proto.Msg, tr *proto.SpanRec) *proto.Msg {
	keys := m.Keys
	start := time.Now()
	parts := make([]cachePart, len(s.caches))
	for i, k := range keys {
		ci := s.cacheRing.Owner(k)
		parts[ci].keys = append(parts[ci].keys, k)
		parts[ci].idx = append(parts[ci].idx, i)
	}
	results := make([]client.MGetResult, len(keys))
	traces := make([]*proto.Trace, len(s.caches))
	errs := make([]error, len(s.caches))
	run := func(ci int) {
		p := &parts[ci]
		res, tct, err := s.caches[ci].MGetTraced(p.keys, tr.ID())
		traces[ci] = tct
		if err != nil {
			errs[ci] = err
			return
		}
		for j, i := range p.idx {
			results[i] = res[j]
		}
	}
	fanOutParts(parts, run)
	s.readRTT.Observe(float64(time.Since(start)))

	resp := proto.GetMsg()
	for ci, tct := range traces {
		tr.Add(tct)
		if errs[ci] != nil {
			s.c.Errors.Inc()
			resp.Type, resp.Err = proto.MsgErr,
				fmt.Sprintf("lb: batch read via cache %s: %v", s.cacheRing.Node(ci), errs[ci])
			return resp
		}
	}
	resp.Type = proto.MsgMGetResp
	ops := resp.Ops[:0]
	for i, k := range keys {
		r := results[i]
		if r.Err != nil {
			s.c.Errors.Inc()
			proto.PutMsg(resp)
			eresp := proto.GetMsg()
			eresp.Type, eresp.Err = proto.MsgErr, fmt.Sprintf("lb: batch read of %q: %v", k, r.Err)
			return eresp
		}
		if r.Found {
			ops = append(ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: r.Value, Version: r.Version})
		} else {
			ops = append(ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: k})
		}
	}
	resp.Ops = ops
	return resp
}

// routeMPut proxies a batched write through the sharded store client
// (which scatters by owning shard) and encodes the per-key outcome: a
// key whose write failed answers as BatchInvalidate — the wire encoding
// of a partial scatter failure, surfaced by the client as that key's
// error — while the rest of the batch acknowledges with its versions.
func (s *Server) routeMPut(m *proto.Msg, tr *proto.SpanRec) *proto.Msg {
	n := len(m.Ops)
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range m.Ops {
		if m.Ops[i].Kind != proto.BatchUpdate {
			return &proto.Msg{Type: proto.MsgErr,
				Err: fmt.Sprintf("lb: MPUT op %d has kind %d, want update", i, m.Ops[i].Kind)}
		}
		keys[i] = m.Ops[i].Key
		vals[i] = m.Ops[i].Value // copied off the reader buffer by handleConn
	}
	start := time.Now()
	results, pts := s.stores.MPutTraced(keys, vals, tr.ID())
	for _, pt := range pts {
		tr.Add(pt)
	}
	s.writeRTT.Observe(float64(time.Since(start)))

	resp := proto.GetMsg()
	resp.Type = proto.MsgMPutResp
	ops := resp.Ops[:0]
	for i, r := range results {
		if r.Err != nil {
			s.c.Errors.Inc()
			ops = append(ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: keys[i]})
			continue
		}
		ops = append(ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: keys[i], Version: r.Version})
	}
	resp.Ops = ops
	return resp
}

// fanOutParts runs run(ci) for every non-empty part — inline when only
// one cache is involved, concurrently otherwise.
func fanOutParts(parts []cachePart, run func(ci int)) {
	active, last := 0, -1
	for ci := range parts {
		if len(parts[ci].keys) > 0 {
			active++
			last = ci
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
	for ci := range parts {
		if len(parts[ci].keys) == 0 {
			continue
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			run(ci)
		}(ci)
	}
	wg.Wait()
}
