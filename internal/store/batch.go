package store

import (
	"fmt"
	"sync"
	"sync/atomic"
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
//
// A write's network legs — replication to the replicas of the keys applied
// here, forwards of the keys owned elsewhere — are run by continuation, as
// the LB gathers an MGET: the connection's read loop applies the local ops
// (per-connection write order is the order they were read in), starts
// every leg, and goes back to reading; each leg's completion runs on the
// peer connection's reader, and the last one in queues the ack without
// blocking. No goroutine is spawned, and the request's values are copied
// once — by the authority, into the entry it keeps.

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
func (s *Server) dispatchMGet(m *proto.Msg, cs *connState, tr *proto.SpanRec, fill bool) *proto.Msg {
	seq, n := m.Seq, len(m.Keys)
	local, remote := s.splitReads(m.Keys)
	if remote == nil {
		return s.mgetResp(seq, n, local, nil, fill)
	}
	return s.goForward(cs, tr, func() *proto.Msg {
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

// pendingWrite is one PUT or MPUT whose answer waits on network legs: the
// countdown record their completions share. Pooled; its slices keep their
// capacity, so a steady request shape allocates nothing here.
//
// Ownership: the connection's read loop fills everything in, then starts
// the legs. From there each leg's completion writes only its own writeLeg
// and — a forward leg — the ops its idx names, which no other leg shares;
// whoever brings left to zero is the last to have touched the record: it
// alone reads the whole of it, applies the failed-leg rule, answers, and
// recycles it. The record never holds request bytes: ops carries keys and
// versions only, and the values each leg sends are encoded, from the
// reader's own buffer, before the call that starts the leg returns.
type pendingWrite struct {
	s      *Server
	cs     *connState
	seq    uint64
	tr     *proto.SpanRec
	single bool // a PUT: answered with PUT's response, not MPUT's
	// ops is the answer taking shape, one op per request op in request
	// order: BatchUpdate with the version assigned here or by the owner a
	// forward leg reached.
	ops  []proto.BatchOp
	legs []writeLeg
	// left counts the legs in flight, plus one held by dispatchWrites
	// until it has started them all.
	left atomic.Int32
}

// writeLeg is one network leg of a write request — the ops that must reach
// addr before their ack is released, forwarded to it as their owner (fwd)
// or replicated to it as accepted local writes — and, as its
// client.Completion, what records that peer's answer.
type writeLeg struct {
	w     *pendingWrite // set when the leg is started
	addr  string
	fwd   bool
	keys  []string // the leg's ops' keys ...
	idx   []int    // ... and their positions in the request
	start time.Time
	trace *proto.Trace
	// err fails the whole leg; keyErr is the last per-key refusal a forward
	// leg's owner answered, its op already flipped.
	err, keyErr error
}

var pendingWritePool = sync.Pool{New: func() any { return new(pendingWrite) }}

// Past this a recycled record would pin a one-off giant batch's scratch in
// the pool.
const maxPooledWriteOps = 4096

// addLeg adds request op i, for key, to the (addr, fwd) leg.
func (w *pendingWrite) addLeg(addr string, fwd bool, key string, i int) {
	for j := range w.legs {
		if l := &w.legs[j]; l.addr == addr && l.fwd == fwd {
			l.keys, l.idx = append(l.keys, key), append(l.idx, i)
			return
		}
	}
	if n := len(w.legs); n < cap(w.legs) {
		w.legs = w.legs[:n+1] // a recycled leg: its scratch is empty, its capacity kept
	} else {
		w.legs = append(w.legs, writeLeg{})
	}
	l := &w.legs[len(w.legs)-1]
	l.addr, l.fwd = addr, fwd
	l.keys, l.idx = append(l.keys, key), append(l.idx, i)
}

// localWrite is an op applied to the local authority, with the dirty
// set of the out-streaming range it lands in, if any.
type localWrite struct {
	i     int
	dirty *keySet
}

// writeScratch is what dispatchWrites builds a request in: only the
// connection's read loop touches it, and nothing in it outlives the
// dispatch — it may hold the reader's buffer.
type writeScratch struct {
	one   [1]proto.BatchOp // a PUT as MPUT's one-op case
	part  []proto.BatchOp  // the ops of the leg being started
	freqs []proto.KeyFreq  // and the tracker counts riding with them
	local []localWrite
	// The local writes as the authority's batch install takes them.
	keys     []string
	vals     [][]byte
	versions []uint64
}

// dispatchWrites serves PUT (one op) and MPUT (the batch) under the
// placement rule, key by key: every op is placed in one read-locked pass
// (the bracket that keeps a migration's snapshot-plus-dirty-set
// exhaustive) and the local ones are applied inside it, one lock per
// authority stripe, on the connection goroutine — so pipelined writes on
// one connection keep their order. A request with no network leg (every
// key owned here, no replicas) is answered inline. Otherwise every leg is
// started from here too — a replication leg pushes its accepted writes,
// with their assigned versions and the tracker's current counts for their
// keys (so a promoted replica's policy warm-starts), as one restore push; a
// forward leg proxies its writes to their owner as one MPUT — and the
// request is answered by the last leg's completion, on that peer
// connection's reader (pendingWrite.legDone).
func (s *Server) dispatchWrites(m *proto.Msg, cs *connState, tr *proto.SpanRec) *proto.Msg {
	single := m.Type == proto.MsgPut
	sc := &cs.write
	// ops is the request as the legs will send it, values and all: the
	// reader's own op list, or for a PUT the connection's one-op scratch.
	ops := m.Ops
	if single {
		sc.one[0] = proto.BatchOp{Kind: proto.BatchUpdate, Key: m.Key, Value: m.Value}
		ops = sc.one[:]
	} else {
		for i := range ops {
			if ops[i].Kind != proto.BatchUpdate {
				return errMsg(m.Seq, "store: MPUT op %d has kind %d, want update", i, ops[i].Kind)
			}
		}
	}
	w := pendingWritePool.Get().(*pendingWrite)
	var repBuf [4]string // keeps each key's replica set off the heap
	local, now := sc.local[:0], time.Now()
	var oneKey [1]string
	keys, forwarded := oneKey[:0], false // the keys applied here; whether any was not
	s.clMu.RLock()
	for i := range ops {
		target, dirty := s.placeLocked(ops[i].Key)
		if target != "" {
			// The local engine never sees a forwarded write: the flusher
			// owes old-epoch subscribers an invalidate for its key.
			s.fwdDirty.add(ops[i].Key)
			forwarded = true
			w.addLeg(target, true, ops[i].Key, i)
			continue
		}
		local = append(local, localWrite{i, dirty})
	}
	if len(local) == 1 {
		o := &ops[local[0].i]
		o.Version = s.auth.Put(o.Key, o.Value, now)
		keys = append(keys, o.Key)
	} else if len(local) > 1 {
		sc.keys, sc.vals, sc.versions = sc.keys[:0], sc.vals[:0], sc.versions[:0]
		for _, lw := range local {
			sc.keys, sc.vals = append(sc.keys, ops[lw.i].Key), append(sc.vals, ops[lw.i].Value)
			sc.versions = append(sc.versions, 0)
		}
		s.auth.PutBatch(sc.keys, sc.vals, sc.versions, now)
		for j, lw := range local {
			ops[lw.i].Version = sc.versions[j]
		}
		clear(sc.vals) // the reader's buffer
		keys = sc.keys
	}
	for _, lw := range local {
		key := ops[lw.i].Key
		if lw.dirty != nil {
			lw.dirty.add(key) // after the write: a dirty round may take it at once
		}
		for _, rep := range s.replicaTargetsLocked(repBuf[:0], key) {
			w.addLeg(rep, false, key, lw.i)
		}
	}
	s.clMu.RUnlock()

	// One engine lock and at most one kick per request: what the engine
	// wants flushed now — and a forwarded key's invalidate — goes out at once.
	if (len(keys) > 0 && s.engine.ObserveWritesAt(keys, now.UnixNano())) || forwarded {
		s.kickFlusher()
	}
	sc.local = local[:0]
	w.ops = w.ops[:0]
	for i := range ops {
		w.ops = append(w.ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: ops[i].Key, Version: ops[i].Version})
	}
	if len(w.legs) == 0 {
		o := s.writeResp(tr, m.Seq, w.ops, single, nil)
		sc.one[0].Value = nil
		w.recycle()
		cs.Out <- o
		return nil
	}

	cs.Acquire()
	w.s, w.cs, w.seq, w.tr, w.single = s, cs, m.Seq, tr, single
	w.left.Store(int32(len(w.legs)) + 1)
	for j := range w.legs {
		l := &w.legs[j]
		l.w, l.start = w, time.Now()
		part := ops // the common case: every op rides this leg
		if len(l.idx) < len(ops) {
			sc.part = sc.part[:0]
			for _, i := range l.idx {
				sc.part = append(sc.part, ops[i])
			}
			part = sc.part
		}
		if l.fwd {
			s.c.ForwardedPuts.Add(uint64(len(part)))
			s.peer(l.addr).MPutAsync(part, tr.ID(), l)
			continue
		}
		sc.freqs = sc.freqs[:0]
		for i := range part {
			sc.freqs = s.appendFreq(sc.freqs, part[i].Key)
		}
		s.peer(l.addr).RestoreAsync(part, sc.freqs, 0, tr.ID(), l)
	}
	clear(sc.part)
	sc.one[0].Value = nil
	w.legDone()
	return nil
}

// Complete records one peer's answer to its leg. It runs on that peer
// connection's reader and must not block.
func (l *writeLeg) Complete(resp *proto.Msg, err error) {
	w := l.w
	s := w.s
	if err == nil {
		l.trace = resp.Trace // allocated per frame, not part of the lent buffers
	}
	if l.fwd {
		var res []proto.BatchOp
		if err == nil {
			res, err = client.DecodeMPut(resp, l.keys)
		}
		if err != nil {
			l.err = fmt.Errorf("forwarding %d writes to %s: %w", len(l.idx), l.addr, err)
		}
		// The owner assigned the versions; a key it refused is withheld.
		for j := range res {
			i := l.idx[j]
			if res[j].Kind == proto.BatchInvalidate {
				w.ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: l.keys[j]}
				l.keyErr = fmt.Errorf("forwarding to %s: %w", l.addr, client.MPutKeyError(l.keys[j]))
				continue
			}
			w.ops[i].Version = res[j].Version
		}
	} else {
		if err == nil {
			err = client.DecodeRestore(resp)
		}
		if err != nil {
			l.err = fmt.Errorf("replicating %d writes to %s: %w", len(l.idx), l.addr, err)
		} else {
			s.c.RepWritesOut.Inc()
			s.repRTT.Observe(float64(time.Since(l.start)))
		}
	}
	w.legDone()
}

// legDone retires one count of left; the last one out answers the request.
// An op is acknowledged only if every leg it rode succeeded; on a failed
// leg it flips to BatchInvalidate — applied locally, perhaps, but not
// durable: the client may retry, which restore semantics absorb, and the
// failure detector drops a dead replica within a few lease intervals. The
// last leg error is the one reported.
func (w *pendingWrite) legDone() {
	if w.left.Add(-1) != 0 {
		return
	}
	var err error
	for j := range w.legs {
		l := &w.legs[j]
		w.tr.Add(l.trace)
		if l.keyErr != nil {
			err = l.keyErr
		}
		if l.err != nil {
			err = l.err
			for j, i := range l.idx {
				w.ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: l.keys[j]}
			}
		}
	}
	w.cs.Answer(w.s.writeResp(w.tr, w.seq, w.ops, w.single, err))
	w.recycle()
}

// recycle empties the record and returns it to the pool. Nothing of the
// server stays reachable from it: a pooled record outlives a closed
// server by a garbage collection or two, and would keep its whole
// authority alive that long.
func (w *pendingWrite) recycle() {
	for j := range w.legs {
		l := &w.legs[j]
		*l = writeLeg{keys: l.keys[:0], idx: l.idx[:0]}
	}
	w.legs, w.ops = w.legs[:0], w.ops[:0]
	w.s, w.cs, w.tr = nil, nil, nil
	if cap(w.ops) <= maxPooledWriteOps {
		pendingWritePool.Put(w)
	}
}

// writeResp shapes a finished write request's answer from its ops (keys,
// versions, and BatchInvalidate where a leg failed) and closes tr's span on
// it. PUT: the assigned version, or the error that withheld the ack. MPUT:
// one op per key in request order — BatchUpdate with the assigned version,
// or BatchInvalidate for a key whose leg failed, which the client surfaces
// as that key's error while the rest of the batch acknowledges — encoded at
// once, as ops is the request record's and recycled with it.
func (s *Server) writeResp(tr *proto.SpanRec, seq uint64, ops []proto.BatchOp, single bool, err error) proto.Outgoing {
	if single && err != nil {
		return proto.Outgoing{Msg: s.finishTrace(tr, errMsg(seq, "store: put %q: %v", ops[0].Key, err)), Pooled: true}
	}
	if single {
		resp := proto.GetMsg()
		resp.Seq, resp.Type, resp.Status, resp.Version = seq, proto.MsgPutResp, proto.StatusOK, ops[0].Version
		return proto.Outgoing{Msg: s.finishTrace(tr, resp), Pooled: true}
	}
	if err != nil {
		s.cfg.Logger.Printf("store %s: %d-key write: %v", s.cfg.ShardID, len(ops), err)
	}
	resp := proto.Msg{Type: proto.MsgMPutResp, Seq: seq, Ops: ops}
	o, _ := proto.EncodeNow(s.finishTrace(tr, &resp)) // past MaxFrame, o is the MsgErr
	return o
}
