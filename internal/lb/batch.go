package lb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// Everything but a GET is scattered. An MGET is split by cache affinity —
// each key goes to the cache its single-key reads hash to, so batching
// never dilutes per-cache hit ratios — an MPUT by owning store, and a PUT
// is the MPUT of one op; the splitting, the legs, the gathering in request
// order and the failover of a leg whose store died all belong to the
// sharded client's record (client.Scatter), which this one embeds.

// scattered is one MGET, PUT or MPUT in flight upstream: whom to answer,
// and — Finish — how to shape the gathered outcome into that answer.
// Pooled; Finish runs exactly once, which is what makes recycling it there
// safe.
type scattered struct {
	client.Scatter
	cc    *clientConn
	seq   uint64 // the client's sequence number, re-stamped on the answer
	tr    *proto.SpanRec
	start time.Time
	verb  proto.MsgType // the client's: MsgMGet, MsgPut or MsgMPut
}

var scatteredPool = sync.Pool{New: func() any { return new(scattered) }}

// scatter counts an MGET, PUT or MPUT and starts it upstream from the read
// loop; Finish answers it. m is the reader's: the sharded client takes what
// it keeps (keys are interned strings, a write's values are copied into the
// record for the failover retry) before scatter returns.
func (s *Server) scatter(cc *clientConn, m *proto.Msg, tr *proto.SpanRec) {
	for i := range m.Ops { // only an MPUT has any
		if m.Ops[i].Kind != proto.BatchUpdate {
			s.c.Errors.Inc()
			cc.answer(tr, &proto.Msg{Type: proto.MsgErr, Seq: m.Seq,
				Err: fmt.Sprintf("lb: MPUT op %d has kind %d, want update", i, m.Ops[i].Kind)})
			return
		}
	}
	q := scatteredPool.Get().(*scattered)
	q.cc, q.seq, q.tr, q.start, q.verb = cc, m.Seq, tr, time.Now(), m.Type
	switch m.Type {
	case proto.MsgMGet:
		n := len(m.Keys)
		s.c.Reads.Add(uint64(n))
		s.c.MGetKeys.Add(uint64(n))
		s.batchSize.Observe(float64(n))
		s.caches.MGetAsync(m.Keys, tr.ID(), q)
	case proto.MsgPut:
		s.c.Writes.Inc()
		one := [1]proto.BatchOp{{Kind: proto.BatchUpdate, Key: m.Key, Value: m.Value}}
		s.stores.MPutAsync(one[:], tr.ID(), q)
	default:
		n := len(m.Ops)
		s.c.Writes.Add(uint64(n))
		s.c.MPutKeys.Add(uint64(n))
		s.batchSize.Observe(float64(n))
		s.stores.MPutAsync(m.Ops, tr.ID(), q)
	}
}

// Finish answers the client from the gathered outcome, on whichever
// upstream connection's reader brought the last leg in. A read that failed
// at any cache fails whole (like a single-key proxied read, errors are
// never downgraded to not-found; per-key not-founds answer as
// BatchInvalidate ops); a batched write answers key by key — a key whose
// write failed as BatchInvalidate, the wire encoding of a partial scatter
// failure — and a PUT with its version or its error.
func (q *scattered) Finish() {
	cc, s, ops := q.cc, q.cc.s, q.Ops()
	q.AddTraces(q.tr)
	var failed error // the first key's that failed
	for i := range ops {
		if err := q.Err(i); err != nil {
			s.c.Errors.Inc()
			if failed == nil {
				failed = err
			}
			if q.verb != proto.MsgMPut {
				break // one answer, one error
			}
		}
	}
	rtt := &s.writeRTT
	var down proto.Msg
	switch q.verb {
	case proto.MsgMGet:
		rtt = &s.readRTT
		down = proto.Msg{Type: proto.MsgMGetResp, Ops: ops}
		if failed != nil {
			var se client.ShardError // escapes: declared where it is needed
			if errors.As(failed, &se) {
				failed = fmt.Errorf("lb: batch read via cache %s: %w", se.Addr, se.Err)
			}
		}
	case proto.MsgPut:
		down = proto.Msg{Type: proto.MsgPutResp, Status: proto.StatusOK, Version: ops[0].Version}
	default:
		down, failed = proto.Msg{Type: proto.MsgMPutResp, Ops: ops}, nil
	}
	rtt.Observe(float64(time.Since(q.start)))
	if failed != nil {
		down = proto.Msg{Type: proto.MsgErr, Err: failed.Error()}
	}
	down.Seq = q.seq
	cc.answer(q.tr, &down)
	q.cc, q.tr = nil, nil
	q.Reset()
	scatteredPool.Put(q)
}
