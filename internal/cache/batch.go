package cache

import (
	"errors"
	"fmt"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
)

// Multi-key serving. An MGET runs the exact per-key cache-aside
// semantics of N single GETs — the same hit/stale/cold classification,
// the same freshness telemetry, the same read-report accounting — but
// pays the resident-set locks once per touched kv shard and services
// every miss through one batched fill per owning store shard. Misses
// ride the same single-flight table as single GETs, so a batch member
// and a concurrent single Get for one key share one store round trip,
// whichever of the two leads it.

// batchMisses is what an MGET's lookup pass hands its fill pass: the
// keys that missed, where each sits in the response, and whether it was
// resident (stale) when probed.
type batchMisses struct {
	keys  []string
	idx   []int
	found []bool
}

// mgetLookup is the non-blocking half of a batched read: one pass over
// the resident set doing every key's accounting. The answer, built in ops'
// capacity, carries one op per requested key in request order — BatchUpdate
// for a fresh hit, BatchInvalidate (a clean not-found, until a fill says
// otherwise) for the rest — and is complete when there are no misses.
// Nothing it returns aliases m, whose Keys slice the reader reuses (keys are
// interned strings).
func (s *Server) mgetLookup(m *proto.Msg, ops []proto.BatchOp) ([]proto.BatchOp, batchMisses) {
	keys := m.Keys
	for _, k := range keys {
		ops = append(ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: k})
	}

	now := time.Now()
	s.c.Gets.Add(uint64(len(keys)))
	var misses batchMisses
	s.kv.GetBatch(keys, now, func(i int, e kv.Entry, found, fresh bool) {
		s.classify(keys[i], &e, found, fresh, now)
		if fresh {
			// Entry values are immutable once installed, so the borrow
			// stays a stable snapshot through the encode.
			ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: keys[i], Value: e.Value, Version: e.Version}
			return
		}
		misses.keys = append(misses.keys, keys[i])
		misses.idx = append(misses.idx, i)
		misses.found = append(misses.found, found)
	})
	return ops, misses
}

// mgetFill is the blocking half: it fills the misses and completes resp.
// A store-side failure fails the whole request — like the single-key
// path, errors are not silently downgraded to not-found.
func (s *Server) mgetFill(resp *proto.Msg, misses batchMisses, tr *proto.SpanRec) *proto.Msg {
	for j, f := range s.fillBatch(misses, tr) {
		key, i := misses.keys[j], misses.idx[j]
		switch {
		case f.err == nil:
			resp.Ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: key, Value: f.value, Version: f.version}
		case errors.Is(f.err, client.ErrNotFound):
			// The op stays a BatchInvalidate (clean not-found).
		default:
			eresp := proto.GetMsg()
			eresp.Type, eresp.Seq = proto.MsgErr, resp.Seq
			eresp.Err = fmt.Sprintf("cache: batch fill of %q: %v", key, f.err)
			proto.PutMsg(resp)
			return eresp
		}
	}
	return resp
}

// fillBatch resolves a batch's misses through the single-flight table:
// keys with a fill already in flight (including duplicates within this
// batch) join it; the rest go out as one batched fill, split by owning
// store shard inside the sharded client, and this goroutine settles their
// flights — answering any GET that parked on one meanwhile. Results are
// the settled flights, in misses order.
func (s *Server) fillBatch(misses batchMisses, tr *proto.SpanRec) []*flight {
	flights := make([]*flight, len(misses.keys))
	var (
		leadKeys    []string
		leadFlights []*flight
	)
	s.fillMu.Lock()
	for i, k := range misses.keys {
		f, lead := s.joinLocked(k, misses.found[i])
		f.wait()
		flights[i] = f
		if lead {
			leadKeys = append(leadKeys, k)
			leadFlights = append(leadFlights, f)
		}
	}
	s.fillMu.Unlock()

	if len(leadKeys) > 0 {
		fillStart := time.Now()
		res, fts := s.stores.MFillTraced(leadKeys, tr.ID())
		for _, ft := range fts {
			// One sibling hop per contacted store shard: the client's
			// hop tree shows the batch fan-out.
			tr.Add(ft)
		}
		s.fillRTT.Observe(float64(time.Since(fillStart)))
		for j, f := range leadFlights {
			r := res[j]
			f.value, f.version, f.err = r.Value, r.Version, r.Err
			if r.Err == nil && !r.Found {
				f.err = fmt.Errorf("%w: %q", client.ErrNotFound, leadKeys[j])
			}
			s.settle(f)
		}
	}

	for _, f := range flights {
		<-f.done
	}
	return flights
}
