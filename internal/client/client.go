// Package client is the client library for freshcache nodes. It speaks
// the proto wire format and offers typed Get/Put/Stats calls plus the
// cache-internal Fill and ReadReport verbs.
//
// There is one transport (mux.go): a small fixed set of multiplexed,
// pipelined TCP connections per target, each with a demux reader
// goroutine that runs each response's Completion by sequence number and
// a writer goroutine gathering queued frames into single vectored
// writes. Concurrent calls share connections instead of queueing behind
// them, and request timeouts are per-request deadlines swept by a
// janitor, so one slow request does not poison a shared connection.
// Blocking calls park only the caller's own goroutine; the asynchronous
// verbs (GetAsync, MGetAsync, FillAsync, MFillAsync, PutAsync, MPutAsync,
// RestoreAsync) park none — a proxy relays (or, for a miss fill, installs;
// for a replicated write, counts down) the response from inside the
// completion. Whatever request bytes an asynchronous verb is handed — a
// value, keys, ops — are lent until the call returns: the frame is encoded
// before then, so the caller may pass its own reader's buffer.
//
// Sharded routes over a consistent-hash ring of such clients, and owns the
// one scatter/gather there is (Scatter, scatter.go): a request split by ring
// owner, a leg per owner, the answers gathered in request order, a leg whose
// owner died failed over to wherever a ring refresh moved its keys. Its
// asynchronous verbs (Sharded.MGetAsync, MPutAsync — a PUT is the MPUT of
// one op) take a record the caller embeds in its own; its blocking batch
// verbs are those plus a wait.
//
// Every verb, blocking or asynchronous, has one body taking a trace ID,
// where 0 means untraced: no proto.Trace is allocated or sent and the
// returned trace is nil. The exported Foo/FooTraced pairs are one-line
// wrappers over it.
//
// Blocking calls copy responses out of the framing buffers, so returned
// values remain valid after the next call. A Completion is instead lent
// the response in place (see Completion for the rule); DecodeGet and
// DecodeMGet read it there, as borrowed views, exactly as the blocking
// call would have; DecodePut, DecodeMPut and DecodeRestore do the same for
// the write verbs.
package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"freshcache/internal/proto"
)

// Errors surfaced by client calls.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("client: key not found")
	// ErrClosed reports a call on a closed client.
	ErrClosed = errors.New("client: closed")
	// ErrServer wraps a request-level error the node answered with
	// (MsgErr): the request reached a live server and was refused or
	// failed there. Errors NOT wrapping ErrServer/ErrNotFound are
	// transport failures — the node itself may be down, which is the
	// signal the sharded client's failover retry keys off.
	ErrServer = errors.New("client: server error")
)

// Options configures a Client.
type Options struct {
	// MaxConns is the number of multiplexed connections per target that
	// concurrent requests are spread over. Defaults to 1 — one busy
	// connection coalesces best: every queued frame joins the same
	// vectored write and responses stream back through one warm demux
	// loop.
	MaxConns int
	// DialTimeout bounds connection establishment; defaults to 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response exchange; defaults to
	// 10s. It is a per-request deadline (enforced by a coarse sweep, so
	// it may fire up to ~12% late): a timed-out request abandons its
	// response without disturbing the other requests in flight on the
	// same connection.
	RequestTimeout time.Duration
	// MaxAttempts bounds how many connections a request is tried on
	// after transport failures that provably occurred before the request
	// reached the wire (a connection that broke, or whose send queue
	// stalled, before the frame was queued). Defaults to 3. A failure
	// after the request may have been written is never retried —
	// retrying could double-apply.
	MaxAttempts int
}

func (o *Options) fill() {
	if o.MaxConns <= 0 {
		o.MaxConns = 1
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
}

// Client is a connection to one freshcache node.
type Client struct {
	addr string
	tr   *muxTransport
}

// New builds a client for addr. No connection is made until first use.
func New(addr string, opts Options) *Client {
	opts.fill()
	return &Client{addr: addr, tr: newMux(addr, opts)}
}

// Addr returns the target address.
func (c *Client) Addr() string { return c.addr }

// do performs one exchange and unwraps server-level errors. It owns
// req: callers build requests with proto.GetMsg (or a literal) and do
// recycles them once they are encoded, so nothing aliases it after return.
// The returned response is an owned copy, pooled too; callers must release
// it via proto.PutMsg after extracting what they need. Everything a caller
// might retain (Value, Stats, Nodes, ring fields) is freshly allocated
// per response, so extraction is plain field reads, not copies.
func (c *Client) do(req *proto.Msg) (*proto.Msg, error) {
	b := c.wait(callPool.Get().(*call), req, 0)
	resp, err := b.resp, b.err
	b.release()
	if err != nil {
		return nil, err
	}
	if err := serverErr(resp); err != nil {
		proto.PutMsg(resp)
		return nil, err
	}
	return resp, nil
}

// call is a blocking verb's pooled completion: it takes what the caller
// keeps from the lent answer — a batch verb's results, decoded in place
// against keys (one result slice and, for a read, one buffer for every
// value found), or else an owned copy of the response — and wakes the
// caller. The exactly-once rule means done holds at most one delivery.
type call struct {
	verb proto.MsgType // the request's
	keys []string
	ops  []proto.BatchOp // an MPUT's request
	resp *proto.Msg
	get  []MGetResult
	put  []MPutResult
	tr   *proto.Trace
	err  error
	done chan struct{}
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// wait sends req the way the asynchronous verbs do — encoded before the
// answer can come, so b.ops is free again — and waits for the answer.
// The caller reads it off b, then releases b.
func (c *Client) wait(b *call, req *proto.Msg, traceID uint64) *call {
	b.verb = req.Type
	c.startAsync(req, traceID, b)
	<-b.done
	return b
}

func (b *call) Complete(resp *proto.Msg, err error) {
	var ops []proto.BatchOp
	switch {
	case err != nil:
	case b.verb == proto.MsgMGet || b.verb == proto.MsgMFill:
		if ops, err = DecodeMGet(resp, b.keys); err == nil {
			b.get, b.tr = mgetResults(ops), resp.Trace // the trace is per frame, not lent
		}
	case b.verb == proto.MsgMPut:
		if ops, err = DecodeMPut(resp, b.keys); err == nil {
			b.put, b.tr = make([]MPutResult, len(ops)), resp.Trace
			for i, op := range ops {
				b.put[i] = MPutResult{Version: op.Version}
				if op.Kind == proto.BatchInvalidate {
					b.put[i] = MPutResult{Err: MPutKeyError(b.keys[i])}
				}
			}
		}
	default:
		b.resp = ownedCopy(resp)
	}
	b.err = err
	b.done <- struct{}{} // buffered; never blocks
}

func (b *call) release() {
	clear(b.ops) // the caller's values
	*b = call{ops: b.ops[:0], done: b.done}
	if cap(b.ops) <= maxPooledScatterKeys {
		callPool.Put(b)
	}
}

// serverErr unwraps a request-level error answer (MsgErr).
func serverErr(resp *proto.Msg) error {
	if resp.Type == proto.MsgErr {
		return fmt.Errorf("%w: %s", ErrServer, resp.Err)
	}
	return nil
}

// newReq builds a pooled request of the given type.
func newReq(t proto.MsgType) *proto.Msg {
	m := proto.GetMsg()
	m.Type = t
	return m
}

// Get fetches key's value and version. It reports ErrNotFound for
// missing keys.
func (c *Client) Get(key string) ([]byte, uint64, error) {
	value, version, _, err := c.get(proto.MsgGet, key, 0)
	return value, version, err
}

// GetTraced is Get with wire-level tracing: the request carries traceID
// and the returned Trace holds every hop's span, innermost first. Pass
// it to a proto.SpanRec via Add when relaying, or render it directly.
func (c *Client) GetTraced(key string, traceID uint64) ([]byte, uint64, *proto.Trace, error) {
	return c.get(proto.MsgGet, key, traceID)
}

// Fill is the cache-internal read used to service a miss: like Get but
// the store records a cache fill rather than a client read.
func (c *Client) Fill(key string) ([]byte, uint64, error) {
	value, version, _, err := c.get(proto.MsgFill, key, 0)
	return value, version, err
}

// get is the one body of the single-key reads (t is MsgGet or MsgFill).
func (c *Client) get(t proto.MsgType, key string, traceID uint64) ([]byte, uint64, *proto.Trace, error) {
	req := newReq(t)
	req.Key = key
	if traceID != 0 {
		req.Trace = &proto.Trace{ID: traceID}
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	tr := resp.Trace
	value, version, err := getResult(resp, key)
	return value, version, tr, err
}

// GetAsync starts a GET for key and returns without waiting for the
// answer: done is called exactly once with the response — lent, see
// Completion; DecodeGet reads it — or with the transport error. traceID
// rides on the wire like every other verb's (0 = untraced). On a live
// connection nothing is spawned and done runs on that connection's
// reader; when the target must first be (re)dialed, the dial runs on a
// goroutine of its own and done then runs on the new connection's reader,
// so the caller never waits out a dial.
func (c *Client) GetAsync(key string, traceID uint64, done Completion) {
	req := newReq(proto.MsgGet)
	req.Key = key
	c.startAsync(req, traceID, done)
}

// FillAsync is GetAsync for the cache-internal miss fill (see Fill).
func (c *Client) FillAsync(key string, traceID uint64, done Completion) {
	req := newReq(proto.MsgFill)
	req.Key = key
	c.startAsync(req, traceID, done)
}

// startAsync is the one body of the asynchronous verbs. It owns req, but
// only borrows the bytes req points at (see the package comment): on a
// live connection they are encoded before it returns, and the cold-slot
// fallback takes its own copy before it spawns.
func (c *Client) startAsync(req *proto.Msg, traceID uint64, done Completion) {
	if traceID != 0 {
		req.Trace = &proto.Trace{ID: traceID}
	}
	if c.tr.start(req, done) {
		proto.PutMsg(req)
		return
	}
	own := ownedCopy(req)
	proto.PutMsg(req)
	go func() {
		c.tr.startDialing(own, done)
		proto.PutMsg(own)
	}()
}

// getResult consumes (and releases) resp.
func getResult(resp *proto.Msg, key string) ([]byte, uint64, error) {
	defer proto.PutMsg(resp)
	return DecodeGet(resp, key)
}

// DecodeGet reads a GET's response — the one lent to a GetAsync
// completion, say — exactly as Get would have returned it, request-level
// server errors included. The value is borrowed from resp.
func DecodeGet(resp *proto.Msg, key string) ([]byte, uint64, error) {
	if err := serverErr(resp); err != nil {
		return nil, 0, err
	}
	if resp.Type != proto.MsgGetResp {
		return nil, 0, fmt.Errorf("client: unexpected response %v to GET", resp.Type)
	}
	switch resp.Status {
	case proto.StatusOK:
		return resp.Value, resp.Version, nil
	case proto.StatusNotFound:
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	default:
		return nil, 0, fmt.Errorf("client: GET %q failed with status %v", key, resp.Status)
	}
}

// Put writes value under key and returns the assigned version.
func (c *Client) Put(key string, value []byte) (uint64, error) {
	version, _, err := c.put(key, value, 0)
	return version, err
}

// PutTraced is Put with wire-level tracing.
func (c *Client) PutTraced(key string, value []byte, traceID uint64) (uint64, *proto.Trace, error) {
	return c.put(key, value, traceID)
}

func (c *Client) put(key string, value []byte, traceID uint64) (uint64, *proto.Trace, error) {
	req := newReq(proto.MsgPut)
	req.Key, req.Value = key, value
	if traceID != 0 {
		req.Trace = &proto.Trace{ID: traceID}
	}
	resp, err := c.do(req)
	if err != nil {
		return 0, nil, err
	}
	defer proto.PutMsg(resp)
	version, err := DecodePut(resp, key)
	if err != nil {
		return 0, nil, err
	}
	return version, resp.Trace, nil
}

// PutAsync is Put without the wait — GetAsync's contract, cold-slot
// fallback included: done is called exactly once with the lent response
// (DecodePut reads it) or the transport error. value is lent until
// PutAsync returns.
func (c *Client) PutAsync(key string, value []byte, traceID uint64, done Completion) {
	req := newReq(proto.MsgPut)
	req.Key, req.Value = key, value
	c.startAsync(req, traceID, done)
}

// DecodePut reads a PUT's response — the one lent to a PutAsync
// completion, say — exactly as Put would have returned it, request-level
// server errors included.
func DecodePut(resp *proto.Msg, key string) (uint64, error) {
	if err := serverErr(resp); err != nil {
		return 0, err
	}
	if resp.Type != proto.MsgPutResp || resp.Status != proto.StatusOK {
		return 0, fmt.Errorf("client: PUT %q failed: %v/%v", key, resp.Type, resp.Status)
	}
	return resp.Version, nil
}

// expectPong consumes (and releases) resp, checking for a MsgPong reply
// to the named verb.
func expectPong(resp *proto.Msg, verb string) error {
	defer proto.PutMsg(resp)
	return checkPong(resp, verb)
}

func checkPong(resp *proto.Msg, verb string) error {
	if resp.Type != proto.MsgPong {
		return fmt.Errorf("client: unexpected response %v to %s", resp.Type, verb)
	}
	return nil
}

// ReadReport ships per-key read counts to the store's policy engine.
func (c *Client) ReadReport(reports []proto.ReadReport) error {
	if len(reports) == 0 {
		return nil
	}
	req := newReq(proto.MsgReadReport)
	req.Reports = reports
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	return expectPong(resp, "READREPORT")
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	resp, err := c.do(newReq(proto.MsgPing))
	if err != nil {
		return err
	}
	return expectPong(resp, "PING")
}

// Stats fetches the node's counter map.
func (c *Client) Stats() (map[string]uint64, error) {
	resp, err := c.do(newReq(proto.MsgStats))
	if err != nil {
		return nil, err
	}
	defer proto.PutMsg(resp)
	if resp.Type != proto.MsgStatsResp {
		return nil, fmt.Errorf("client: unexpected response %v to STATS", resp.Type)
	}
	return resp.Stats, nil
}

// Close tears down the client's connections; in-flight requests fail.
func (c *Client) Close() error { return c.tr.close() }

// ---- Cluster control-plane calls (coordinator and store admin) ----

// RingInfo is a versioned store-ring snapshot as published by the
// cluster coordinator.
type RingInfo struct {
	// Epoch is the monotonic ring version; every membership change
	// publishes a new one.
	Epoch uint64
	// Nodes are the store shard addresses in ring order.
	Nodes []string
	// VirtualNodes is the ring geometry every party must share.
	VirtualNodes int
	// Replicas is the cluster replication factor R: every key lives on
	// its ring owner plus the R−1 next distinct ring successors. 1 (or
	// 0, normalized to 1) means no replication.
	Replicas int
	// PublishedAt is the coordinator's publish time — the moment
	// routers may start using this ring, and therefore the staleness
	// clock origin for entries whose ownership moved.
	PublishedAt time.Time
}

// ringInfo consumes (and releases) resp. Nodes is freshly allocated by
// the frame parser, so the returned RingInfo owns it outright.
func ringInfo(resp *proto.Msg) (RingInfo, error) {
	defer proto.PutMsg(resp)
	if resp.Type != proto.MsgRingResp {
		return RingInfo{}, fmt.Errorf("client: unexpected response %v to ring request", resp.Type)
	}
	replicas := int(resp.Replicas)
	if replicas < 1 {
		replicas = 1
	}
	return RingInfo{
		Epoch:        resp.Epoch,
		Nodes:        resp.Nodes,
		VirtualNodes: int(resp.Version),
		Replicas:     replicas,
		PublishedAt:  time.Unix(0, resp.Stamp),
	}, nil
}

// RingGet fetches the coordinator's current published ring.
func (c *Client) RingGet() (RingInfo, error) {
	resp, err := c.do(newReq(proto.MsgRingGet))
	if err != nil {
		return RingInfo{}, err
	}
	return ringInfo(resp)
}

// Join asks the coordinator to admit the store at storeAddr into the
// ring; it returns the newly published ring once the key-range handoff
// has completed.
func (c *Client) Join(storeAddr string) (RingInfo, error) {
	req := newReq(proto.MsgJoin)
	req.Key = storeAddr
	resp, err := c.do(req)
	if err != nil {
		return RingInfo{}, err
	}
	return ringInfo(resp)
}

// Drain asks the coordinator to remove the store at storeAddr from the
// ring; it returns the newly published ring once the leaving store's
// keys have been migrated to the remaining owners.
func (c *Client) Drain(storeAddr string) (RingInfo, error) {
	req := newReq(proto.MsgDrain)
	req.Key = storeAddr
	resp, err := c.do(req)
	if err != nil {
		return RingInfo{}, err
	}
	return ringInfo(resp)
}

// Heartbeat renews a store's liveness lease at the coordinator: self is
// the store's advertised ring identity, version its authority version
// counter, and misses the consecutive heartbeat failures the store saw
// before this beat got through (zero on a healthy path; surfaced in
// coordinator stats). The response is the coordinator's current
// published ring, so a store that missed a release catches up from its
// own heartbeat.
func (c *Client) Heartbeat(self string, version, misses uint64) (RingInfo, error) {
	req := newReq(proto.MsgHeartbeat)
	req.Key, req.Version, req.Epoch = self, version, misses
	resp, err := c.do(req)
	if err != nil {
		return RingInfo{}, err
	}
	return ringInfo(resp)
}

// Vote requests this coordinator peer's vote in a leader election:
// term is the candidate's term, lastIndex/lastTerm identify the
// candidate's newest replicated-log entry, and candidate its advertised
// address. It returns whether the vote was granted and the peer's own
// term (a candidate seeing a higher one steps down).
func (c *Client) Vote(term, lastIndex, lastTerm uint64, candidate string) (granted bool, peerTerm uint64, err error) {
	req := newReq(proto.MsgVote)
	req.Epoch, req.Version, req.Stamp, req.Key = term, lastIndex, int64(lastTerm), candidate
	resp, err := c.do(req)
	if err != nil {
		return false, 0, err
	}
	defer proto.PutMsg(resp)
	if resp.Type != proto.MsgVoteResp {
		return false, 0, fmt.Errorf("client: unexpected response %v to VOTE", resp.Type)
	}
	return resp.Status == proto.StatusOK, resp.Epoch, nil
}

// Append pushes one replicated-log entry (or, with a nil entry, a pure
// leadership lease heartbeat) from a coordinator leader to a follower:
// term is the leader's term, commit its commit index, leader its
// advertised address and entry the JSON-encoded log record. It returns
// whether the follower accepted, plus the follower's term and last log
// index.
func (c *Client) Append(term, commit uint64, leader string, entry []byte) (ok bool, peerTerm, peerLast uint64, err error) {
	req := newReq(proto.MsgAppend)
	req.Epoch, req.Version, req.Key, req.Value = term, commit, leader, entry
	resp, err := c.do(req)
	if err != nil {
		return false, 0, 0, err
	}
	defer proto.PutMsg(resp)
	if resp.Type != proto.MsgAppendResp {
		return false, 0, 0, fmt.Errorf("client: unexpected response %v to APPEND", resp.Type)
	}
	return resp.Status == proto.StatusOK, resp.Epoch, resp.Version, nil
}

// Restore is the one store-to-store restore push; any part may be
// empty. ops (key, value, sender-assigned version) are applied under
// restore semantics — idempotent, never clobbering an entry the receiver
// has since written with a newer version; freqs, the sender tracker's
// counts for those keys, are banked for a later promotion; fence raises
// the receiver's version counter to at least that value. A primary
// replicates accepted writes with (ops, freqs, 0) and acknowledges its
// client only after this returns. A donor fences the adopter with
// (nil, nil, counter) at the instant of a handoff's forward switch, so
// the versions the adopter assigns from then on order after everything
// a cache observed from the donor, then hands over its final write tail
// with (ops, nil, 0). The coordinator fences a failed store's survivors
// the same way.
func (c *Client) Restore(ops []proto.BatchOp, freqs []proto.KeyFreq, fence uint64) error {
	req := newReq(proto.MsgRepWrite)
	req.Ops, req.Freqs, req.Version = ops, freqs, fence
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	return expectPong(resp, "restore push")
}

// RestoreAsync is Restore without the wait — GetAsync's contract,
// cold-slot fallback included: done is called exactly once with the lent
// response (DecodeRestore reads it) or the transport error. ops, their
// values and freqs are lent until RestoreAsync returns. traceID rides on
// the wire (0 = untraced), so a traced write shows its replica's hop.
func (c *Client) RestoreAsync(ops []proto.BatchOp, freqs []proto.KeyFreq, fence, traceID uint64, done Completion) {
	req := newReq(proto.MsgRepWrite)
	req.Ops, req.Freqs, req.Version = ops, freqs, fence
	c.startAsync(req, traceID, done)
}

// DecodeRestore reads a restore push's response exactly as Restore would
// have returned it, request-level server errors included.
func DecodeRestore(resp *proto.Msg) error {
	if err := serverErr(resp); err != nil {
		return err
	}
	return checkPong(resp, "restore push")
}

// Adopt commands a store (addressed as identity self under the
// candidate ring) to pull the key ranges the ring assigns to it from
// the donor stores. It blocks until the handoff is applied.
func (c *Client) Adopt(ri RingInfo, self string, donors []string) error {
	req := newReq(proto.MsgAdopt)
	req.Epoch, req.Version, req.Replicas = ri.Epoch, uint64(ri.VirtualNodes), uint32(ri.Replicas)
	req.Key, req.Nodes, req.Donors = self, ri.Nodes, donors
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	return expectPong(resp, "ADOPT")
}

// Release tells a store (identity self) that the attached ring is
// published: it drops the keys the ring no longer assigns to it and
// forwards stragglers to the new owners.
func (c *Client) Release(ri RingInfo, self string) error {
	req := newReq(proto.MsgRelease)
	req.Epoch, req.Version, req.Replicas = ri.Epoch, uint64(ri.VirtualNodes), uint32(ri.Replicas)
	req.Key, req.Nodes = self, ri.Nodes
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	return expectPong(resp, "RELEASE")
}
