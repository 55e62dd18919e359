package lb

import (
	"fmt"
	"sync/atomic"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// Multi-key routing. An MGET is split by cache affinity in one ring
// pass — each key goes to the same cache its single-key reads hash to,
// so batching never dilutes per-cache hit ratios — scattered from the
// read loop, and gathered in request order by the sub-batches'
// completions. An MPUT goes through the sharded store client, which
// scatters by authority shard the same way. Traced batches record one
// sibling hop per contacted upstream, so the client's hop tree shows the
// fan-out.

// gather is one MGET in flight to the caches: the scratch its sub-batches
// are cut from and the answer they assemble. Pooled per Server (parts is
// as long as its cache ring), so a steady batch size allocates nothing
// here.
//
// Ownership: the read loop fills everything in, then starts the parts.
// From there each part's completion writes only its own gatherPart and
// the ops slots its idx names — disjoint between parts, so two upstream
// readers never share a write — and whoever brings left to zero is the
// last to have touched the gather: it alone reads the whole of it,
// answers, and recycles it.
type gather struct {
	cc    *clientConn
	seq   uint64 // the client's sequence number
	tr    *proto.SpanRec
	start time.Time
	// ops is the answer, one op per requested key in request order. It
	// starts out all BatchInvalidate — a clean not-found.
	ops   []proto.BatchOp
	parts []gatherPart // one per cache, in cache-ring order
	// left counts the parts in flight, plus one held by scatterMGet until
	// it has started them all.
	left atomic.Int32
}

// gatherPart is one cache's sub-batch and, as its client.Completion, what
// copies that cache's answer into the gather.
type gatherPart struct {
	g     *gather // fixed: parts live and die with their gather
	keys  []string
	idx   []int  // keys[j] is the request's key number idx[j]
	buf   []byte // backs the values this part found
	trace *proto.Trace
	err   error
}

// Past these a recycled gather would pin a one-off giant batch's scratch
// in the pool.
const (
	maxPooledGatherKeys  = 4096
	maxPooledGatherBytes = 1 << 20
)

// scatterMGet splits an MGET by cache affinity and starts each cache's
// sub-batch; the parts' completions assemble and send the answer.
func (s *Server) scatterMGet(cc *clientConn, m *proto.Msg, tr *proto.SpanRec) {
	n := len(m.Keys)
	s.c.Reads.Add(uint64(n))
	s.c.MGetKeys.Add(uint64(n))
	s.batchSize.Observe(float64(n))

	g, _ := s.gathers.Get().(*gather)
	if g == nil {
		g = &gather{parts: make([]gatherPart, len(s.caches))}
		for ci := range g.parts {
			g.parts[ci].g = g
		}
	}
	g.cc, g.seq, g.tr, g.start = cc, m.Seq, tr, time.Now()
	if cap(g.ops) < n {
		g.ops = make([]proto.BatchOp, n)
	}
	g.ops = g.ops[:n]
	for i, k := range m.Keys {
		g.ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: k}
		p := &g.parts[s.cacheRing.Owner(k)]
		p.keys = append(p.keys, k)
		p.idx = append(p.idx, i)
	}
	g.left.Store(1)
	for ci := range g.parts {
		if p := &g.parts[ci]; len(p.keys) > 0 {
			g.left.Add(1)
			s.caches[ci].MGetAsync(p.keys, tr.ID(), p)
		}
	}
	g.partDone()
}

// Complete copies one cache's answer into the gather's slots: the found
// keys' values into this part's own buffer, the rest left not-found.
func (p *gatherPart) Complete(resp *proto.Msg, err error) {
	if err == nil {
		p.trace = resp.Trace // allocated per frame, not part of the lent buffers
		var ops []proto.BatchOp
		if ops, err = client.DecodeMGet(resp, p.keys); err == nil {
			total := 0
			for j := range ops {
				total += len(ops[j].Value)
			}
			buf := p.buf[:0]
			if cap(buf) < total {
				buf = make([]byte, 0, total)
			}
			for j, i := range p.idx {
				if ops[j].Kind == proto.BatchUpdate {
					at := len(buf)
					buf = append(buf, ops[j].Value...)
					slot := &p.g.ops[i]
					slot.Kind, slot.Version, slot.Value = proto.BatchUpdate, ops[j].Version, buf[at:len(buf):len(buf)]
				}
			}
			p.buf = buf
		}
	}
	p.err = err
	p.g.partDone()
}

// partDone retires one count of left; the last one out answers the MGET.
// A sub-batch failure fails the whole request (like a single-key proxied
// read, errors are never downgraded to not-found); per-key not-founds
// answer as BatchInvalidate ops.
func (g *gather) partDone() {
	if g.left.Add(-1) != 0 {
		return
	}
	s := g.cc.s
	s.readRTT.Observe(float64(time.Since(g.start)))
	down := proto.Msg{Type: proto.MsgMGetResp, Seq: g.seq, Ops: g.ops}
	for ci := range g.parts {
		p := &g.parts[ci]
		if len(p.keys) == 0 {
			continue
		}
		g.tr.Add(p.trace)
		if p.err != nil {
			s.c.Errors.Inc()
			down = proto.Msg{Type: proto.MsgErr, Seq: g.seq,
				Err: fmt.Sprintf("lb: batch read via cache %s: %v", s.cacheRing.Node(ci), p.err)}
			break
		}
	}
	g.cc.answer(g.tr, &down)

	pooled := cap(g.ops) <= maxPooledGatherKeys
	for ci := range g.parts {
		p := &g.parts[ci]
		pooled = pooled && cap(p.buf) <= maxPooledGatherBytes
		p.keys, p.idx, p.trace, p.err = p.keys[:0], p.idx[:0], nil, nil
	}
	g.cc, g.tr = nil, nil
	if pooled {
		s.gathers.Put(g)
	}
}

// routeMPut proxies a batched write through the sharded store client
// (which scatters by owning shard) and encodes the per-key outcome: a
// key whose write failed answers as BatchInvalidate — the wire encoding
// of a partial scatter failure, surfaced by the client as that key's
// error — while the rest of the batch acknowledges with its versions.
func (s *Server) routeMPut(m *proto.Msg, tr *proto.SpanRec) *proto.Msg {
	n := len(m.Ops)
	s.c.Writes.Add(uint64(n))
	s.c.MPutKeys.Add(uint64(n))
	s.batchSize.Observe(float64(n))
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range m.Ops {
		if m.Ops[i].Kind != proto.BatchUpdate {
			return &proto.Msg{Type: proto.MsgErr,
				Err: fmt.Sprintf("lb: MPUT op %d has kind %d, want update", i, m.Ops[i].Kind)}
		}
		keys[i] = m.Ops[i].Key
		vals[i] = m.Ops[i].Value // copied off the reader buffer by dispatchMPut
	}
	start := time.Now()
	results, pts := s.stores.MPutTraced(keys, vals, tr.ID())
	for _, pt := range pts {
		tr.Add(pt)
	}
	s.writeRTT.Observe(float64(time.Since(start)))

	resp := proto.GetMsg()
	resp.Type = proto.MsgMPutResp
	resp.Ops = make([]proto.BatchOp, n)
	for i, r := range results {
		if r.Err != nil {
			s.c.Errors.Inc()
			resp.Ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: keys[i]}
			continue
		}
		resp.Ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: keys[i], Version: r.Version}
	}
	return resp
}
