package client

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/proto"
)

// muxTransport is the client's transport: a small fixed set of
// multiplexed connections, each shared by every concurrent request
// routed to it. Requests are encoded in the caller's goroutine into
// pooled frames, queued to the connection's writer (which coalesces
// queued frames into one vectored write), and matched to responses by
// sequence number in a dedicated demux reader goroutine — so N
// concurrent calls pipeline onto one socket instead of queueing behind
// a checkout, and a burst of N frames costs one syscall, not N.
//
// There is one request path, and it is completion-based: a request
// registers a Completion under its sequence number (muxConn.start) and
// the demux reader invokes it with the response before reading the next
// frame. A blocking call is that primitive with a completion that takes
// what its caller keeps and wakes it (Client.wait); a proxy relays from
// inside the completion and never parks a goroutine on the request
// (Client.startAsync).
//
// Timeouts are deadline sweeps, not per-request timers: each pending
// request records its deadline and a per-connection janitor expires
// overdue ones on a coarse tick (~timeout/8). A timed-out request
// abandons its pending-map slot (its late response, if any, is dropped
// on arrival) and the connection keeps serving its neighbors. This keeps
// the blocking path to one channel receive — no timer arm/stop, no
// multi-way selects — which is worth ~20% of hot-path CPU at pipelined
// rates.
type muxTransport struct {
	addr   string
	opts   Options
	seq    atomic.Uint64
	rr     atomic.Uint64
	closed atomic.Bool
	slots  []muxSlot
}

// muxSlot lazily holds one live connection. Re-dials are single-flight:
// one caller dials outside the slot lock while the rest wait on the
// dialing gate, so a burst against a dead slot costs one dial — and one
// DialTimeout when the target black-holes — for everyone.
type muxSlot struct {
	mu      sync.Mutex
	mc      *muxConn
	dialing chan struct{} // non-nil while a dial is in flight
	dialErr error         // result of the last completed dial
}

func newMux(addr string, opts Options) *muxTransport {
	return &muxTransport{addr: addr, opts: opts, slots: make([]muxSlot, opts.MaxConns)}
}

// startDialing is start for a request that found no live connection: it
// dials where it must and retries on another connection only while the
// request provably never left this client; done gets the error of one that
// never starts. It blocks through the dial: callers spawn it.
func (t *muxTransport) startDialing(req *proto.Msg, done Completion) {
	req.Seq = t.seq.Add(1)
	var err error
	for attempt := 0; attempt < t.opts.MaxAttempts; attempt++ {
		mc, derr := t.slots[t.rr.Add(1)%uint64(len(t.slots))].get(t)
		if derr != nil {
			done.Complete(nil, derr) // dial (or closed-client) failures are terminal
			return
		}
		if err = mc.start(req, t.opts.RequestTimeout, done); err == nil {
			return
		}
	}
	done.Complete(nil, fmt.Errorf("client: request failed after %d attempts on broken connections: %w",
		t.opts.MaxAttempts, err))
}

// start is the non-blocking entry: it begins req on a live connection
// and reports whether it did. On true, done fires exactly once (see
// Completion) and req has been encoded — the caller may recycle it. On
// false nothing was started: the slot has no live connection (first
// use, or it just broke) and getting one means a dial, which the caller
// must not sit through on a goroutine it cannot block.
func (t *muxTransport) start(req *proto.Msg, done Completion) bool {
	mc := t.slots[t.rr.Add(1)%uint64(len(t.slots))].live()
	if mc == nil {
		return false
	}
	req.Seq = t.seq.Add(1)
	return mc.start(req, t.opts.RequestTimeout, done) == nil
}

func (t *muxTransport) close() error {
	t.closed.Store(true)
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		mc := s.mc
		s.mc = nil
		s.mu.Unlock()
		if mc != nil {
			// Outside the slot lock: fail runs the pending completions.
			mc.fail(ErrClosed)
		}
	}
	return nil
}

// live returns the slot's connection if it has an unbroken one, without
// dialing.
func (s *muxSlot) live() *muxConn {
	s.mu.Lock()
	mc := s.mc
	s.mu.Unlock()
	if mc == nil || mc.broken() {
		return nil
	}
	return mc
}

// get returns the slot's live connection, re-dialing a dead or empty
// slot. The dial runs outside the slot lock so concurrent callers (and
// Close) never queue behind a slow dial; a dial that completes after
// Close began is failed immediately rather than installed.
func (s *muxSlot) get(t *muxTransport) (*muxConn, error) {
	for {
		s.mu.Lock()
		if t.closed.Load() {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if s.mc != nil && !s.mc.broken() {
			mc := s.mc
			s.mu.Unlock()
			return mc, nil
		}
		if done := s.dialing; done != nil {
			s.mu.Unlock()
			<-done
			s.mu.Lock()
			mc, err := s.mc, s.dialErr
			s.mu.Unlock()
			if mc != nil && !mc.broken() {
				return mc, nil
			}
			if err != nil {
				return nil, err
			}
			continue // the dialed conn already broke; start over
		}
		done := make(chan struct{})
		s.dialing = done
		s.mu.Unlock()

		mc, err := dialMux(t.addr, t.opts.DialTimeout, t.opts.RequestTimeout)
		s.mu.Lock()
		s.dialing = nil
		if err == nil && t.closed.Load() {
			err = ErrClosed
			mc.fail(ErrClosed)
			mc = nil
		}
		s.dialErr = err
		if mc != nil {
			s.mc = mc
		}
		s.mu.Unlock()
		close(done)
		if err != nil {
			return nil, err
		}
		return mc, nil
	}
}

func dialMux(addr string, timeout, reqTimeout time.Duration) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // best-effort latency tweak
	}
	return newMuxConn(conn, reqTimeout), nil
}

// Completion receives the outcome of one request. Complete is called
// exactly once — with the response, or with a nil response and the
// timeout or connection error — on whichever goroutine settled the
// request (the connection's reader, its janitor, or the one that broke
// it), holding no client lock, so it may start further requests. It
// must not block: the reader serves every request on the connection.
//
// resp is lent, not given: it is valid only until Complete returns,
// its byte slices alias the connection's read buffer, and the client
// reuses it for the next frame. A completion copies what it keeps and
// never stores resp or passes it to proto.PutMsg.
type Completion interface {
	Complete(resp *proto.Msg, err error)
}

// muxConn is one multiplexed connection: a writer goroutine draining the
// send queue with vectored writes, a reader goroutine demuxing responses
// to completions by sequence number, and a janitor goroutine expiring
// requests past their deadline.
type muxConn struct {
	c  net.Conn
	wq chan *frameBuf

	// now is a coarse wall clock (UnixNano), refreshed by the janitor
	// each tick. Requests stamp their deadlines from it instead of
	// calling time.Now — at pipelined rates the per-request clock read
	// is measurable, and deadline sweeps are tick-grained anyway.
	now atomic.Int64

	// errTimeout is what the janitor completes an overdue request with.
	errTimeout error

	mu      sync.Mutex
	pending map[uint64]pendingReq
	err     error

	done chan struct{} // closed when the connection breaks
}

// pendingReq is one registered request: its completion plus the deadline
// (coarse-clock UnixNano) the janitor sweeps against. Whoever removes it
// from the pending map under mc.mu — reader, janitor, or the failure
// sweep — owns the one call to done, made after unlocking.
type pendingReq struct {
	deadline int64
	done     Completion
}

// ownedCopy clones a lent Msg — a response, or the request of an
// asynchronous verb that must outlive its call — into a pooled Msg the
// caller owns (and releases via proto.PutMsg): the value, and a batch's
// op values, alias the lender's buffer, and the Ops/Keys/Reports/Freqs
// slices are reused by the lender's next decode. Op values are copied
// through one backing buffer — one allocation per batch, not per key.
// Everything else reachable from a response (Stats, Nodes, Trace,
// interned strings) is freshly allocated per frame and safe to share.
func ownedCopy(src *proto.Msg) *proto.Msg {
	if src == nil {
		return nil
	}
	m := proto.GetMsg()
	*m = *src
	m.Value = cloneSlice(src.Value)
	m.Ops = cloneSlice(src.Ops)
	m.Keys = cloneSlice(src.Keys)
	m.Reports = cloneSlice(src.Reports)
	m.Freqs = cloneSlice(src.Freqs)
	total := 0
	for i := range m.Ops {
		total += len(m.Ops[i].Value)
	}
	if total > 0 {
		buf := make([]byte, 0, total)
		for i := range m.Ops {
			if m.Ops[i].Value != nil {
				start := len(buf)
				buf = append(buf, m.Ops[i].Value...)
				m.Ops[i].Value = buf[start:len(buf):len(buf)]
			}
		}
	}
	return m
}

// cloneSlice copies s, keeping nil and empty slices allocation-free.
func cloneSlice[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// frameBuf is a pooled, pre-encoded frame: requests are serialized in
// the caller's goroutine (parallel across callers, and the request's
// byte slices need not outlive the call) and the writer only moves
// bytes.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

// maxPooledFrameBuf keeps one-off giant request frames (a near-MaxFrame
// Put) from pinning their capacity in the pool forever.
const maxPooledFrameBuf = 1 << 20

func putFrameBuf(fb *frameBuf) {
	if cap(fb.b) <= maxPooledFrameBuf {
		frameBufPool.Put(fb)
	}
}

// timerPool recycles the slow-path timers. The happy path never arms
// one (timeouts come from the janitor sweep); only a full send queue
// does, so the pool exists for correctness of that rare path, not
// throughput.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		// Drain a fired-but-unconsumed timer. Redundant under go ≥ 1.23
		// timer semantics (Reset discards stale values), but keeps reuse
		// correct under GODEBUG=asynctimerchan=1.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

func newMuxConn(c net.Conn, reqTimeout time.Duration) *muxConn {
	mc := &muxConn{
		c:       c,
		wq:      make(chan *frameBuf, 256),
		pending: make(map[uint64]pendingReq),
		done:    make(chan struct{}),

		errTimeout: fmt.Errorf("client: request timed out after %v", reqTimeout),
	}
	mc.now.Store(time.Now().UnixNano())
	go mc.writeLoop()
	go mc.readLoop()
	go mc.janitor(reqTimeout)
	return mc
}

// janitor refreshes the connection's coarse clock and expires requests
// past their deadline, so the request path itself never touches a timer
// or the system clock. The tick is a fraction of the request timeout:
// late enough to stay cheap (a few wakeups per timeout window), early
// enough that a timeout fires within roughly a tick of its nominal
// deadline (either side, since deadlines are stamped from the coarse
// clock too).
func (mc *muxConn) janitor(reqTimeout time.Duration) {
	tick := reqTimeout / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var overdue []Completion
	for {
		select {
		case <-mc.done:
			return
		case now := <-t.C:
			nowNs := now.UnixNano()
			mc.now.Store(nowNs)
			overdue = mc.expire(nowNs, overdue[:0])
		}
	}
}

// expire times out every request whose deadline has passed. Overdue
// requests are unregistered under mc.mu and completed after unlocking
// (a completion may start another request on this connection); scratch
// is the caller's reusable buffer for them.
func (mc *muxConn) expire(nowNs int64, scratch []Completion) []Completion {
	mc.mu.Lock()
	for seq, p := range mc.pending {
		if nowNs > p.deadline {
			delete(mc.pending, seq)
			scratch = append(scratch, p.done)
		}
	}
	mc.mu.Unlock()
	for i, done := range scratch {
		done.Complete(nil, mc.errTimeout)
		scratch[i] = nil
	}
	return scratch
}

func (mc *muxConn) broken() bool {
	select {
	case <-mc.done:
		return true
	default:
		return false
	}
}

// fail breaks the connection once: records err, closes the socket
// (unblocking both loops), and errors out every pending request so none
// hang. The pending map is detached before done closes, so whoever
// observes done knows the sweep owns every request registered before.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	pend := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	close(mc.done)
	mc.c.Close()
	for _, p := range pend {
		p.done.Complete(nil, err)
	}
}

// take unregisters seq, reporting whether it was still pending — in
// which case the caller now owns its completion.
func (mc *muxConn) take(seq uint64) (pendingReq, bool) {
	mc.mu.Lock()
	p, ok := mc.pending[seq]
	delete(mc.pending, seq)
	mc.mu.Unlock()
	return p, ok
}

// start encodes req, registers done for its response and queues the
// frame — the one request path on a connection. A non-nil error means
// the request provably never left this client and done will not be
// called: it is safe to retry on another connection. After a nil return
// done is called exactly once. start blocks only while the send queue is
// full (the peer has stopped draining the pipe), for at most timeout.
func (mc *muxConn) start(req *proto.Msg, timeout time.Duration, done Completion) error {
	fb := frameBufPool.Get().(*frameBuf)
	b, err := proto.AppendFrame(fb.b[:0], req)
	fb.b = b
	if err != nil {
		putFrameBuf(fb)
		return err
	}

	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		putFrameBuf(fb)
		return err
	}
	mc.pending[req.Seq] = pendingReq{deadline: mc.now.Load() + int64(timeout), done: done}
	mc.mu.Unlock()

	// Fast path: the send queue has room, which is the overwhelmingly
	// common case. One non-blocking send, no timer, no select against
	// done — a conn that breaks from here on is handled by the failure
	// sweep completing the request.
	select {
	case mc.wq <- fb:
		return nil
	default:
		return mc.enqueueSlow(req.Seq, fb, timeout)
	}
}

// enqueueSlow blocks until the full send queue accepts fb, the
// connection breaks, or a whole timeout passes; its result is start's.
func (mc *muxConn) enqueueSlow(seq uint64, fb *frameBuf, timeout time.Duration) error {
	timer := getTimer(timeout)
	defer putTimer(timer)
	select {
	case mc.wq <- fb:
		return nil
	case <-mc.done:
		// Broken before the frame was queued. The failure sweep (or,
		// earlier, the janitor) owns the request and completes it.
		putFrameBuf(fb)
		return nil
	case <-timer.C:
		// The send queue stayed full for a whole request timeout: the
		// peer has stopped draining the pipe. Unlike a slow response,
		// this wedges every future request, so break the connection. The
		// frame was never queued, so if the request is still ours to
		// take back it is safe to retry on another connection.
		putFrameBuf(fb)
		_, ours := mc.take(seq)
		serr := fmt.Errorf("client: send queue stalled for %v", timeout)
		mc.fail(serr)
		if ours {
			return serr
		}
		return nil // the janitor got there first and timed it out
	}
}

// writeLoop drains the send queue, gathering every frame already queued
// into one vectored write — the pre-encoded frames go to the kernel in
// place, with zero intermediate copies.
func (mc *muxConn) writeLoop() {
	var fbs []*frameBuf
	// bufs is the copy of iov's header that WriteTo consumes; its
	// receiver escapes, so it is declared once, not per write.
	var iov, bufs net.Buffers
	for {
		select {
		case fb := <-mc.wq:
			fbs = append(fbs[:0], fb)
			fbs = mc.drainQueued(fbs)
			// One scheduler yield before writing lets callers that are
			// already runnable enqueue their frames too, growing the
			// frames-per-write batch (each write is a syscall) for the
			// cost of one Gosched. A lone caller pays one yield of
			// latency, not a timer.
			runtime.Gosched()
			fbs = mc.drainQueued(fbs)

			var err error
			if len(fbs) == 1 {
				_, err = mc.c.Write(fbs[0].b)
			} else {
				iov = iov[:0]
				for _, f := range fbs {
					iov = append(iov, f.b)
				}
				// WriteTo consumes its receiver; pass a copy of the
				// slice header so iov's backing array stays reusable.
				bufs = iov
				_, err = bufs.WriteTo(mc.c)
				for i := range iov {
					iov[i] = nil
				}
			}
			for _, f := range fbs {
				putFrameBuf(f)
			}
			if err != nil {
				mc.fail(err)
				return
			}
		case <-mc.done:
			return
		}
	}
}

// drainQueued appends every frame already sitting in the send queue.
func (mc *muxConn) drainQueued(fbs []*frameBuf) []*frameBuf {
	for {
		select {
		case fb := <-mc.wq:
			fbs = append(fbs, fb)
		default:
			return fbs
		}
	}
}

// maxRetainedOps bounds the op-slice capacity the reader's Msg keeps
// across frames, so one giant batched response does not pin its decode
// buffer for the connection's lifetime.
const maxRetainedOps = 4096

// readLoop demuxes responses to their completions by sequence number. A
// frame with no pending request (a late response whose request timed
// out, or a stray push) is dropped; the connection survives. Every
// response is decoded into the one Msg this loop owns and lent to its
// completion, which runs to the end before the next frame is read — so
// the value still aliases the read buffer and a relaying completion
// re-encodes it without a copy.
func (mc *muxConn) readLoop() {
	r := proto.NewReader(mc.c)
	var m proto.Msg
	for {
		if err := r.ReadMsgInto(&m); err != nil {
			if errors.Is(err, net.ErrClosed) {
				mc.fail(ErrClosed)
			} else {
				mc.fail(fmt.Errorf("client: connection broken: %w", err))
			}
			return
		}
		if p, ok := mc.take(m.Seq); ok {
			p.done.Complete(&m, nil)
		}
		if cap(m.Ops) > maxRetainedOps {
			m.Ops = nil
		}
	}
}
