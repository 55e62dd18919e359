package client

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/proto"
)

// pooledTransport is the seed-style lock-step transport: a bounded pool
// of connections, each carrying one blocking request/response exchange
// at a time. Per-target concurrency is capped at MaxConns in-flight
// requests and every frame pays its own flush; it survives as the
// comparison baseline for the transport benchmarks.
type pooledTransport struct {
	addr string
	opts Options
	seq  atomic.Uint64

	mu     sync.Mutex
	free   []*pconn
	total  int
	closed bool
	// waiters wake when a connection is returned.
	cond *sync.Cond
}

type pconn struct {
	c net.Conn
	r *proto.Reader
	w *proto.Writer
}

func newPooled(addr string, opts Options) *pooledTransport {
	p := &pooledTransport{addr: addr, opts: opts}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// checkout returns a connection and whether it was reused from the pool
// (a reused connection may have gone stale; roundTrip retries transport
// failures on reused connections but not on fresh ones).
func (p *pooledTransport) checkout() (pc *pconn, reused bool, err error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, false, ErrClosed
		}
		if n := len(p.free); n > 0 {
			pc := p.free[n-1]
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return pc, true, nil
		}
		if p.total < p.opts.MaxConns {
			p.total++
			p.mu.Unlock()
			pc, err := p.dial()
			if err != nil {
				p.mu.Lock()
				p.total--
				p.cond.Signal()
				p.mu.Unlock()
				return nil, false, err
			}
			return pc, false, nil
		}
		p.cond.Wait()
	}
}

func (p *pooledTransport) dial() (*pconn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, p.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", p.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // best-effort latency tweak
	}
	return &pconn{c: conn, r: proto.NewReader(conn), w: proto.NewWriter(conn)}, nil
}

// checkin returns a healthy connection to the pool; broken ones are
// discarded so the pool re-dials lazily.
func (p *pooledTransport) checkin(pc *pconn, healthy bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !healthy || p.closed {
		pc.c.Close()
		p.total--
	} else {
		p.free = append(p.free, pc)
	}
	p.cond.Signal()
}

// roundTrip performs one request/response exchange, retrying transport
// failures that occurred on reused pool connections (they may simply
// have gone stale since checkin). Attempts are capped at MaxAttempts,
// after which the last transport error is surfaced; a failure on a
// freshly dialed connection is returned to the caller immediately.
func (p *pooledTransport) roundTrip(req *proto.Msg) (*proto.Msg, error) {
	var lastErr error
	for attempt := 0; attempt < p.opts.MaxAttempts; attempt++ {
		resp, reused, err := p.doOnce(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !reused {
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: request failed after %d attempts on pooled connections: %w",
		p.opts.MaxAttempts, lastErr)
}

func (p *pooledTransport) doOnce(req *proto.Msg) (*proto.Msg, bool, error) {
	req.Seq = p.seq.Add(1)
	pc, reused, err := p.checkout()
	if err != nil {
		return nil, false, err
	}
	deadline := time.Now().Add(p.opts.RequestTimeout)
	if err := pc.c.SetDeadline(deadline); err != nil {
		p.checkin(pc, false)
		return nil, reused, fmt.Errorf("client: setting deadline: %w", err)
	}
	if err := pc.w.WriteMsg(req); err != nil {
		p.checkin(pc, false)
		return nil, reused, err
	}
	resp, err := pc.r.ReadMsg()
	if err != nil {
		p.checkin(pc, false)
		return nil, reused, err
	}
	if resp.Seq != req.Seq {
		// Connection state is unrecoverable (a stray push or a lost
		// response); drop it and report — retrying could double-apply.
		p.checkin(pc, false)
		return nil, false, fmt.Errorf("client: response seq %d for request %d", resp.Seq, req.Seq)
	}
	// Copy buffer-aliasing fields before the conn (and its read buffer)
	// is reused.
	if resp.Value != nil {
		v := make([]byte, len(resp.Value))
		copy(v, resp.Value)
		resp.Value = v
	}
	for i := range resp.Ops {
		// Batched responses: each op's value aliases the read buffer too.
		if resp.Ops[i].Value != nil {
			resp.Ops[i].Value = append([]byte(nil), resp.Ops[i].Value...)
		}
	}
	p.checkin(pc, true)
	return resp, false, nil
}

// start never begins a request: every exchange on this transport blocks
// its caller for the whole round trip.
func (p *pooledTransport) start(*proto.Msg, Completion) bool { return false }

func (p *pooledTransport) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, pc := range p.free {
		pc.c.Close()
	}
	p.free = nil
	p.cond.Broadcast()
	return nil
}
