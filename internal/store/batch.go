package store

import (
	"fmt"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// Multi-key request serving. A batch amortizes the per-request costs of
// the hot path — one frame, one dispatch, one placement pass under one
// cluster lock, one authority lock per touched stripe — while keeping
// the single-key semantics exactly, key by key: the same freshness
// accounting, cluster forwarding and replication ack rule. For writes
// the two are one body: PUT is MPUT's one-op case.

// batchPart is the slice of a multi-key read served from one place: the
// keys and their positions in the request. A nil idx means keys is the
// whole request, in order.
type batchPart struct {
	keys []string
	idx  []int
}

func (p *batchPart) add(key string, i int) {
	p.keys = append(p.keys, key)
	p.idx = append(p.idx, i)
}

func (p *batchPart) pos(j int) int {
	if p.idx == nil {
		return j
	}
	return p.idx[j]
}

// observeRead feeds the policy engine one served read. A fill means the
// cache is re-fetching: its copy becomes fresh, so future writes need a
// fresh invalidate (§3.3's tracked invalidation state).
func (s *Server) observeRead(key string, fill bool) {
	if fill {
		s.engine.NoteFilled(key)
	} else {
		s.engine.ObserveRead(key)
	}
}

// dispatchMGet serves MGET/MFILL. The all-local case — every key owned
// here, the only case on the benchmark hot path — answers synchronously
// from one authority pass over the request's own key slice. As soon as
// any key must be proxied the whole batch moves to a forward goroutine
// so the cross-node round trips never stall the requests pipelined
// behind it.
func (s *Server) dispatchMGet(m *proto.Msg, cs *connState, out chan proto.Outgoing, tr *proto.SpanRec, fill bool) *proto.Msg {
	seq, n := m.Seq, len(m.Keys)
	local, remote := s.splitReads(m.Keys)
	if remote == nil {
		return s.mgetResp(seq, n, local, nil, fill)
	}
	return s.goForward(cs, out, tr, func() *proto.Msg {
		return s.mgetResp(seq, n, local, remote, fill)
	})
}

// splitReads places every key of a multi-key read under one cluster
// lock: the part served here, and one part per store the rest must be
// proxied to (nil when there is none).
func (s *Server) splitReads(keys []string) (local batchPart, remote map[string]*batchPart) {
	s.clMu.RLock()
	defer s.clMu.RUnlock()
	for i, k := range keys {
		target, _ := s.placeLocked(k)
		if target == "" {
			if remote != nil {
				local.add(k, i)
			}
			continue
		}
		if remote == nil {
			// The first key owned elsewhere: the batch will outlive the
			// request Msg, which the connection's read loop reuses, so
			// the local part gets its own slices (key strings are interned).
			remote = make(map[string]*batchPart)
			for j, lk := range keys[:i] {
				local.add(lk, j)
			}
		}
		p := remote[target]
		if p == nil {
			p = &batchPart{}
			remote[target] = p
		}
		p.add(k, i)
	}
	if remote == nil {
		local.keys = keys
	}
	return local, remote
}

// mgetResp answers a multi-key read: the local part in one authority
// pass grouped by stripe, each remote part as one sub-batch proxied to
// its owner; response ops in request order (BatchUpdate = hit,
// BatchInvalidate = not found), per-key served-age and engine
// accounting identical to N single GETs/FILLs. A proxy failure fails
// the whole request (like the single-key forward path) rather than
// silently reporting reachable keys as missing.
func (s *Server) mgetResp(seq uint64, n int, local batchPart, remote map[string]*batchPart, fill bool) *proto.Msg {
	ops := make([]proto.BatchOp, n)
	for j, k := range local.keys {
		ops[local.pos(j)] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: k}
	}
	// GetViewAgedBatch borrows: authority entries are immutable once
	// installed, so the values stay stable snapshots through the encode,
	// exactly as in the single-key getResp.
	s.auth.GetViewAgedBatch(local.keys, func(j int, value []byte, version uint64, written time.Time, ok bool) {
		if !ok {
			return
		}
		s.observeServedAge(written)
		ops[local.pos(j)] = proto.BatchOp{Kind: proto.BatchUpdate, Key: local.keys[j], Value: value, Version: version}
	})
	for _, k := range local.keys {
		s.observeRead(k, fill)
	}
	for target, p := range remote {
		var (
			res []client.MGetResult
			err error
		)
		if fill {
			res, err = s.peer(target).MFill(p.keys)
		} else {
			res, err = s.peer(target).MGet(p.keys)
		}
		s.c.ForwardedReads.Add(uint64(len(p.keys)))
		if err != nil {
			return errMsg(seq, "store: forwarding batch read (%d keys) to %s: %v", len(p.keys), target, err)
		}
		for j, r := range res {
			ops[p.idx[j]] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: p.keys[j]}
			if r.Found {
				ops[p.idx[j]] = proto.BatchOp{Kind: proto.BatchUpdate, Key: p.keys[j], Value: r.Value, Version: r.Version}
			}
		}
	}
	resp := proto.GetMsg()
	resp.Type, resp.Seq, resp.Ops = proto.MsgMGetResp, seq, ops
	return resp
}

// leg is one network leg of a write request: the positions of the ops
// that must reach addr before their ack is released — forwarded to it as
// their owner (fwd), or replicated to it as accepted local writes.
type leg struct {
	addr string
	fwd  bool
	idx  []int
}

// addLeg adds op i of an n-op request to the (addr, fwd) leg.
func addLeg(legs []leg, addr string, fwd bool, i, n int) []leg {
	for j := range legs {
		if legs[j].addr == addr && legs[j].fwd == fwd {
			legs[j].idx = append(legs[j].idx, i)
			return legs
		}
	}
	return append(legs, leg{addr: addr, fwd: fwd, idx: append(make([]int, 0, n), i)})
}

// localWrite is an op applied to the local authority, with the dirty
// set of the out-streaming range it lands in, if any.
type localWrite struct {
	i     int
	dirty *keySet
}

// dispatchWrites serves PUT (one op) and MPUT (the batch) under the
// placement rule, key by key: every op is placed in one read-locked pass
// (the bracket that keeps a migration's snapshot-plus-dirty-set
// exhaustive) and the local ones are applied inside it, one lock per
// authority stripe, on the connection goroutine — so pipelined writes on
// one connection keep their order. A request with no network leg (every
// key owned here, no replicas) is answered inline; forwards and
// replication complete on a forward goroutine (finishWrites).
func (s *Server) dispatchWrites(m *proto.Msg, cs *connState, out chan proto.Outgoing, tr *proto.SpanRec) *proto.Msg {
	single := m.Type == proto.MsgPut
	var ops []proto.BatchOp
	if single {
		ops = []proto.BatchOp{{Kind: proto.BatchUpdate, Key: m.Key, Value: m.Value}}
	} else {
		for i := range m.Ops {
			if m.Ops[i].Kind != proto.BatchUpdate {
				return errMsg(m.Seq, "store: MPUT op %d has kind %d, want update", i, m.Ops[i].Kind)
			}
		}
		// m is reused by the connection's read loop: the keys are interned
		// strings, the op slice must be copied.
		ops = append([]proto.BatchOp(nil), m.Ops...)
	}
	var legs []leg
	var localBuf [16]localWrite // keeps the usual request's list off the heap
	var repBuf [4]string        // and each key's replica set
	local, now := localBuf[:0], time.Now()
	s.clMu.RLock()
	for i := range ops {
		target, dirty := s.placeLocked(ops[i].Key)
		if target != "" {
			// The local engine never sees a forwarded write: the next flush
			// owes old-epoch subscribers an invalidate for its key.
			s.fwdDirty.add(ops[i].Key)
			legs = addLeg(legs, target, true, i, len(ops))
			continue
		}
		local = append(local, localWrite{i, dirty})
	}
	if len(local) == 1 {
		o := &ops[local[0].i]
		o.Version = s.auth.Put(o.Key, o.Value, now)
	} else if len(local) > 1 {
		keys, vals, versions := make([]string, len(local)), make([][]byte, len(local)), make([]uint64, len(local))
		for j, lw := range local {
			keys[j], vals[j] = ops[lw.i].Key, ops[lw.i].Value
		}
		s.auth.PutBatch(keys, vals, versions, now)
		for j, lw := range local {
			ops[lw.i].Version = versions[j]
		}
	}
	for _, lw := range local {
		key := ops[lw.i].Key
		if lw.dirty != nil {
			lw.dirty.add(key) // after the write: a dirty round may take it at once
		}
		for _, rep := range s.replicaTargetsLocked(repBuf[:0], key) {
			legs = addLeg(legs, rep, false, lw.i, len(ops))
		}
	}
	s.clMu.RUnlock()

	for _, lw := range local {
		s.engine.ObserveWrite(ops[lw.i].Key)
	}
	if len(legs) == 0 {
		return s.writeResp(m.Seq, ops, single, nil)
	}
	// The values alias the reader's frame buffer and the legs outlive
	// this dispatch: one backing buffer holds every value copy.
	total := 0
	for i := range ops {
		total += len(ops[i].Value)
	}
	buf := make([]byte, 0, total)
	for i := range ops {
		start := len(buf)
		buf = append(buf, ops[i].Value...)
		ops[i].Value = buf[start:len(buf):len(buf)]
	}
	seq, ops, legs := m.Seq, ops, legs // single-assignment copies: captured by value, no heap cell
	return s.goForward(cs, out, tr, func() *proto.Msg {
		return s.writeResp(seq, ops, single, s.finishWrites(ops, legs))
	})
}

// finishWrites performs the network legs of a request's writes — the
// one write-completion body, run on a forward goroutine so the round
// trips never stall the requests pipelined behind the write. A
// replication leg pushes its accepted writes, with their assigned
// versions and the tracker's current counts for their keys (so a
// promoted replica's policy warm-starts), as one restore push; a forward
// leg proxies its writes to their owner as one MPUT and takes the
// owner-assigned versions. An op is acknowledged only if every leg it
// rides succeeded; on a failed leg it flips to BatchInvalidate — applied
// locally, perhaps, but not durable: the client may retry, which restore
// semantics absorb, and the failure detector drops a dead replica within
// a few lease intervals. The last leg error is returned.
func (s *Server) finishWrites(ops []proto.BatchOp, legs []leg) (err error) {
	var failed []int
	for _, l := range legs {
		if l.fwd {
			keys, vals := make([]string, len(l.idx)), make([][]byte, len(l.idx))
			for j, i := range l.idx {
				keys[j], vals[j] = ops[i].Key, ops[i].Value
			}
			res, ferr := s.peer(l.addr).MPut(keys, vals)
			s.c.ForwardedPuts.Add(uint64(len(keys)))
			if ferr != nil {
				err = fmt.Errorf("forwarding %d writes to %s: %w", len(keys), l.addr, ferr)
				failed = append(failed, l.idx...)
			}
			for j, r := range res {
				if r.Err != nil {
					err = fmt.Errorf("forwarding to %s: %w", l.addr, r.Err)
					failed = append(failed, l.idx[j])
				}
				ops[l.idx[j]].Version = r.Version
			}
			continue
		}
		part := ops // the common case: every op replicates to this peer
		if len(l.idx) < len(ops) {
			part = make([]proto.BatchOp, len(l.idx))
			for j, i := range l.idx {
				part[j] = ops[i]
			}
		}
		var freqs []proto.KeyFreq
		for i := range part {
			freqs = s.appendFreq(freqs, part[i].Key)
		}
		start := time.Now()
		if rerr := s.peer(l.addr).Restore(part, freqs, 0); rerr != nil {
			err = fmt.Errorf("replicating %d writes to %s: %w", len(part), l.addr, rerr)
			failed = append(failed, l.idx...)
			continue
		}
		s.c.RepWritesOut.Inc()
		s.repRTT.Observe(float64(time.Since(start)))
	}
	for _, i := range failed {
		ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: ops[i].Key}
	}
	return err
}

// writeResp shapes a finished write request's answer. PUT: the assigned
// version, or the error that withheld the ack. MPUT: one op per key in
// request order — BatchUpdate with the assigned version, or
// BatchInvalidate for a key whose leg failed, which the client surfaces
// as that key's error while the rest of the batch acknowledges.
func (s *Server) writeResp(seq uint64, ops []proto.BatchOp, single bool, err error) *proto.Msg {
	if single && err != nil {
		return errMsg(seq, "store: put %q: %v", ops[0].Key, err)
	}
	resp := proto.GetMsg()
	resp.Seq = seq
	if single {
		resp.Type, resp.Status, resp.Version = proto.MsgPutResp, proto.StatusOK, ops[0].Version
		return resp
	}
	if err != nil {
		s.cfg.Logger.Printf("store %s: %d-key write: %v", s.cfg.ShardID, len(ops), err)
	}
	for i := range ops {
		ops[i].Value = nil // the response carries versions only
	}
	resp.Type, resp.Ops = proto.MsgMPutResp, ops
	return resp
}
