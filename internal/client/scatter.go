package client

import (
	"fmt"
	"sync"
	"sync/atomic"

	"freshcache/internal/proto"
)

// Scatter is the record of one request split across a ring — the one
// scatter/gather there is: Sharded.MGetAsync and MPutAsync (and, through
// them, the blocking batch verbs, the balancer's MGET, PUT and MPUT and the
// cache's forwarded writes) partition the request's keys by ring owner over
// a single routing view, start one leg per owner that got any, and gather
// the answers in request order. A caller embeds it in its own pooled
// request record (see Scattered), so a request in flight is still one
// object and, at a steady batch size, allocates nothing here.
//
// Ownership: the starting goroutine fills everything in, then starts the
// legs. From there each leg's completion — on that owner's connection
// reader — writes only its own leg and the ops and errs slots its idx
// names, which no other leg shares. An atomic countdown picks the finisher:
// whoever brings left to zero is ordered after every other leg's writes and
// alone calls Finish, which reads the whole record, answers, and Resets it.
// The starter holds one count of its own until every leg is started, so a
// fast first answer cannot finish a half-scattered request.
//
// Failover: a leg whose transport failed — its owner may be down — goes,
// alone, to a goroutine of its own, because refreshing the ring blocks.
// There the keys that Sharded.reroute moves to another owner, and only
// those, are scattered once more under the request's trace ID; the rest
// keep the error. (A write's failed attempt may have reached the old
// owner's wire: re-applying the same values under newer versions is
// absorbed by the version-ordered stores and caches.)
type Scatter struct {
	s       *Sharded
	fin     Scattered
	verb    proto.MsgType // MsgMGet, MsgMFill or MsgMPut
	traceID uint64
	retry   bool // a failover's second attempt: its legs do not fail over again
	v       *shardView

	// ops is the answer, one op per requested key in request order: for a
	// read BatchUpdate with the value and version found, for a write
	// BatchUpdate with the version assigned; BatchInvalidate is a read's
	// clean not-found or, where errs has the slot's error, a failed key.
	ops  []proto.BatchOp
	errs []error
	vals []byte // a write's values: the legs' copy, kept for a failover
	legs []leg  // one per node of v, in ring order
	// left counts the legs in flight, plus one held by the starter.
	left atomic.Int32
}

// Scattered is a request that can be scattered: any type that embeds a
// Scatter and has a Finish method, which runs exactly once — on whichever
// goroutine brought the last leg in, so it must not block — when every key
// has its answer. There the embedded Scatter's Ops, Err and AddTraces are
// the outcome, lent until the Reset that must end Finish (or, for a waiter,
// follow it).
type Scattered interface {
	Finish()
	scatter() *Scatter
}

func (sc *Scatter) scatter() *Scatter { return sc }

// leg is one owner's share of a scattered request and, as the Completion
// of that share's exchange, what files the owner's answer in the record.
type leg struct {
	sc    *Scatter // fixed, like shard: legs live and die with their record
	shard int
	// owner is on record before the leg starts — its completion may run
	// first — and is what a failover compares the refreshed ring against.
	owner  *Client
	keys   []string
	idx    []int           // keys[j] is the request's key number idx[j]
	ops    []proto.BatchOp // a write's share, values in sc.vals
	buf    []byte          // backs the values a read's share found
	traces []*proto.Trace
}

// Past these a recycled record would pin a giant request's scratch in its
// pool — and on the live heap, which the collector's headroom doubles: Reset
// lets that part go. (A bulk load's 256 KiB batches are the case in point;
// an ordinary batch of a few dozen keys stays well inside.)
const (
	maxPooledScatterKeys  = 4096
	maxPooledScatterBytes = 64 << 10
)

// MGetAsync is MGet without the wait: q.Finish runs once every key has its
// answer. keys is lent until MGetAsync returns.
func (s *Sharded) MGetAsync(keys []string, traceID uint64, q Scattered) {
	s.start(q, proto.MsgMGet, keys, nil, traceID)
}

// MPutAsync is MPut without the wait. ops — BatchUpdate, key, value — and
// their values are lent until it returns. A request of one op is a PUT: it
// travels as MsgPut, so the store answers it as cheaply as any other.
func (s *Sharded) MPutAsync(ops []proto.BatchOp, traceID uint64, q Scattered) {
	s.start(q, proto.MsgMPut, nil, ops, traceID)
}

// start partitions a request — keys for a read, ops for a write — in one
// ring pass over one routing view, so a concurrent ring swap can never split
// it across two routing generations, and starts its legs.
func (s *Sharded) start(q Scattered, verb proto.MsgType, keys []string, ops []proto.BatchOp, traceID uint64) {
	sc, v, n := q.scatter(), s.v.Load(), len(keys)+len(ops)
	sc.s, sc.fin, sc.verb, sc.traceID, sc.v = s, q, verb, traceID, v
	if cap(sc.ops) < n {
		sc.ops, sc.errs = make([]proto.BatchOp, n), make([]error, n)
	}
	sc.ops, sc.errs = sc.ops[:n], sc.errs[:n]
	if cap(sc.legs) < len(v.clients) {
		sc.legs = make([]leg, len(v.clients))
		for i := range sc.legs {
			sc.legs[i].sc, sc.legs[i].shard = sc, i
		}
	}
	sc.legs = sc.legs[:len(v.clients)]

	for i, k := range keys {
		sc.ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: k}
		l := &sc.legs[v.r.Owner(k)]
		l.keys, l.idx = append(l.keys, k), append(l.idx, i)
	}
	total := 0
	for i := range ops {
		total += len(ops[i].Value)
	}
	if cap(sc.vals) < total {
		sc.vals = make([]byte, 0, total)
	}
	vals := sc.vals[:0]
	for i := range ops {
		k, at := ops[i].Key, len(vals)
		vals = append(vals, ops[i].Value...)
		sc.ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: k}
		l := &sc.legs[v.r.Owner(k)]
		l.keys, l.idx = append(l.keys, k), append(l.idx, i)
		l.ops = append(l.ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: vals[at:len(vals):len(vals)]})
	}

	sc.left.Store(1)
	for i := range sc.legs {
		l := &sc.legs[i]
		if len(l.keys) == 0 {
			continue
		}
		sc.left.Add(1)
		l.owner = v.clients[i]
		switch {
		case verb == proto.MsgMGet:
			l.owner.MGetAsync(l.keys, traceID, l)
		case verb == proto.MsgMFill:
			l.owner.MFillAsync(l.keys, traceID, l)
		case n == 1:
			l.owner.PutAsync(l.ops[0].Key, l.ops[0].Value, traceID, l)
		default:
			l.owner.MPutAsync(l.ops, traceID, l)
		}
	}
	sc.legDone()
}

// legDone retires one count of left; the last one out finishes the request.
func (sc *Scatter) legDone() {
	if sc.left.Add(-1) == 0 {
		sc.fin.Finish()
	}
}

// Complete files one owner's answer. It runs on that owner's connection
// reader and must not block: a transport failure sends the leg to a
// goroutine of its own (failover).
func (l *leg) Complete(resp *proto.Msg, err error) {
	sc := l.sc
	if err != nil {
		if failoverWorthy(err) && !sc.retry {
			go l.failover(err)
			return
		}
	} else {
		if resp.Trace != nil { // allocated per frame, not part of the lent buffers
			l.traces = append(l.traces, resp.Trace)
		}
		var ops []proto.BatchOp // none for a PUT: its version is all there is to land
		switch {
		case sc.verb != proto.MsgMPut:
			ops, err = decodeBatch(resp, proto.MsgMGetResp, "MGET", l.keys)
		case len(sc.ops) == 1:
			sc.ops[0].Version, err = DecodePut(resp, l.keys[0])
		default:
			ops, err = DecodeMPut(resp, l.keys)
		}
		if err == nil {
			l.land(ops, l.idx)
		}
	}
	if err != nil {
		l.fail(err)
	}
	sc.legDone()
}

// land files ops[j] — an owner's answer, or a retry's — under request slot
// idx[j]: a read's found values are copied into the leg's own buffer, a
// write's assigned versions taken, a write the owner refused upstream
// (BatchInvalidate) given its error.
func (l *leg) land(ops []proto.BatchOp, idx []int) {
	sc := l.sc
	if sc.verb == proto.MsgMPut {
		for j := range ops {
			slot := &sc.ops[idx[j]]
			if slot.Kind, slot.Version = ops[j].Kind, ops[j].Version; slot.Kind == proto.BatchInvalidate {
				sc.errs[idx[j]] = MPutKeyError(slot.Key)
			}
		}
		return
	}
	total := 0
	for j := range ops {
		total += len(ops[j].Value)
	}
	buf := l.buf[:0]
	if cap(buf) < total {
		buf = make([]byte, 0, total)
	}
	for j := range ops {
		if ops[j].Kind == proto.BatchUpdate {
			at, slot := len(buf), &sc.ops[idx[j]]
			buf = append(buf, ops[j].Value...)
			slot.Kind, slot.Version, slot.Value = proto.BatchUpdate, ops[j].Version, buf[at:len(buf):len(buf)]
		}
	}
	l.buf = buf
}

// fail gives every key of the leg err, annotated with the owner it failed on.
func (l *leg) fail(err error) {
	sc := l.sc
	var se error = ShardError{Shard: l.shard, Addr: sc.v.r.Node(l.shard), Err: err}
	for _, i := range l.idx {
		sc.ops[i] = proto.BatchOp{Kind: proto.BatchInvalidate, Key: sc.ops[i].Key}
		sc.errs[i] = se
	}
}

// failover is the rest of a leg whose transport failed with err: the keys a
// ring refresh moves to another owner are gathered once more from where
// they live now, the others keep err.
func (l *leg) failover(err error) {
	sc := l.sc
	var (
		keys []string
		ops  []proto.BatchOp
		idx  []int
	)
	for j, k := range l.keys {
		if sc.s.reroute(k, l.owner, err) == nil {
			continue
		}
		idx = append(idx, l.idx[j])
		if sc.verb == proto.MsgMPut {
			ops = append(ops, l.ops[j])
		} else {
			keys = append(keys, k)
		}
	}
	l.fail(err)
	if len(idx) > 0 {
		g := sc.s.gather(sc.verb, keys, ops, sc.traceID, true)
		l.land(g.ops, idx)
		for j, i := range idx {
			sc.errs[i] = g.errs[j]
		}
		l.traces = g.appendTraces(l.traces)
		g.release()
	}
	sc.legDone()
}

// Ops returns the gathered answer, one op per requested key in request
// order (see Scatter.ops); Err tells a failed key from a clean not-found.
func (sc *Scatter) Ops() []proto.BatchOp { return sc.ops }

// Err returns what failed the request's i'th key, or nil: a ShardError
// naming the owner whose leg failed, or MPutKeyError for a write an owner
// acknowledged as failed upstream.
func (sc *Scatter) Err(i int) error { return sc.errs[i] }

// AddTraces adds the legs' downstream traces to tr in ring order — not in
// arrival order — so a traced batch's hop tree lists one sibling hop per
// contacted owner (and, after a failover, per promoted one) the same way
// every time.
func (sc *Scatter) AddTraces(tr *proto.SpanRec) {
	for i := range sc.legs {
		for _, t := range sc.legs[i].traces {
			tr.Add(t)
		}
	}
}

func (sc *Scatter) appendTraces(dst []*proto.Trace) []*proto.Trace {
	for i := range sc.legs {
		dst = append(dst, sc.legs[i].traces...)
	}
	return dst
}

// Reset empties the record for its next request, keeping its scratch — up
// to the bounds above — but nothing that points at this one: not the
// Sharded, its clients, the traces or the errors. The record may then go
// back to its owner's pool.
func (sc *Scatter) Reset() {
	for i := range sc.legs {
		l := &sc.legs[i]
		if cap(l.buf) > maxPooledScatterBytes {
			l.buf = nil
		}
		// Emptied, not just truncated: a stale op would keep the value
		// buffer it points into — this request's or an earlier, larger one's —
		// alive behind the record.
		clear(l.ops)
		clear(l.traces)
		l.owner, l.keys, l.idx, l.ops, l.traces = nil, l.keys[:0], l.idx[:0], l.ops[:0], l.traces[:0]
	}
	clear(sc.ops)
	clear(sc.errs)
	if cap(sc.ops) > maxPooledScatterKeys {
		sc.ops, sc.errs, sc.legs = nil, nil, nil // the legs' shares are per key too
	}
	if cap(sc.vals) > maxPooledScatterBytes {
		sc.vals = nil
	}
	sc.s, sc.fin, sc.v, sc.retry = nil, nil, nil, false
}

// gathered is the blocking verbs' Scattered: Finish hands the record back
// to the goroutine waiting on it, as a blocking call's completion does.
type gathered struct {
	Scatter
	done chan struct{}
}

var gatheredPool = sync.Pool{New: func() any { return &gathered{done: make(chan struct{}, 1)} }}

func (g *gathered) Finish() { g.done <- struct{}{} } // buffered; never blocks

// gather scatters a request and waits for it. The caller reads the answer
// off the record it returns, then releases it.
func (s *Sharded) gather(verb proto.MsgType, keys []string, ops []proto.BatchOp, traceID uint64, retry bool) *gathered {
	g := gatheredPool.Get().(*gathered)
	g.retry = retry
	s.start(g, verb, keys, ops, traceID)
	<-g.done
	return g
}

func (g *gathered) release() {
	g.Reset()
	gatheredPool.Put(g)
}

// MGet fetches every key from its owning shard: the batch is split by
// shard in one ring pass, the per-shard sub-batches go out together, and
// the results reassemble in request order. A shard's failure marks only
// its own keys' Err — the rest of the batch succeeds — and, when a ring
// refresh reroutes the failed shard's keys, exactly those keys are retried
// against their new owners.
func (s *Sharded) MGet(keys []string) []MGetResult {
	res, _ := s.mget(proto.MsgMGet, keys, 0)
	return res
}

// MFillTraced is the cache-internal batch miss fill: like MGet but each
// store records cache fills rather than client reads. traceID rides on
// the wire (0 = untraced) and the shards' traces come back in ring order,
// so a relay can add the per-shard fan-out as sibling hops.
func (s *Sharded) MFillTraced(keys []string, traceID uint64) ([]MGetResult, []*proto.Trace) {
	return s.mget(proto.MsgMFill, keys, traceID)
}

func (s *Sharded) mget(verb proto.MsgType, keys []string, traceID uint64) ([]MGetResult, []*proto.Trace) {
	g := s.gather(verb, keys, nil, traceID, false)
	defer g.release()
	out := mgetResults(g.ops)
	for i := range out {
		out[i].Err = g.errs[i]
	}
	return out, g.appendTraces(nil)
}

// MPut writes every key through its owning shard with the same
// scatter/gather and per-key failover contract as MGet.
func (s *Sharded) MPut(keys []string, values [][]byte) []MPutResult {
	res, _ := s.MPutTraced(keys, values, 0)
	return res
}

// MPutTraced is MPut carrying traceID on the wire (0 = untraced), with
// the contacted shards' traces in ring order.
func (s *Sharded) MPutTraced(keys []string, values [][]byte, traceID uint64) ([]MPutResult, []*proto.Trace) {
	out := make([]MPutResult, len(keys))
	if len(keys) != len(values) {
		err := fmt.Errorf("client: MPUT with %d keys but %d values", len(keys), len(values))
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	ops := make([]proto.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: values[i]}
	}
	g := s.gather(proto.MsgMPut, nil, ops, traceID, false)
	defer g.release()
	for i := range out {
		out[i] = MPutResult{Version: g.ops[i].Version, Err: g.errs[i]}
	}
	return out, g.appendTraces(nil)
}
