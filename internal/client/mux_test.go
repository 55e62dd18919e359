package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/proto"
)

// muxTestServer is a store-like responder with per-request behavior
// hooks: requests are handled in their own goroutines (so responses can
// complete out of order) and responses go through one coalescing writer
// per connection, exactly like the real servers.
type muxTestServer struct {
	t        *testing.T
	ln       net.Listener
	accepted atomic.Int64
	// handle returns the response for m, or nil to never respond
	// (black-hole). It runs on a per-request goroutine.
	handle func(m *proto.Msg) *proto.Msg
	// dropAfter, when > 0, closes each connection after that many
	// requests have been read from it.
	dropAfter int

	mu    sync.Mutex
	conns []net.Conn // every accepted connection, for closeConns
}

func startMuxTestServer(t *testing.T, handle func(m *proto.Msg) *proto.Msg, dropAfter int) *muxTestServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &muxTestServer{t: t, ln: ln, handle: handle, dropAfter: dropAfter}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
	return s
}

func (s *muxTestServer) serve(conn net.Conn) {
	defer conn.Close()
	out := make(chan proto.Outgoing, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		proto.WriteQueue(conn, out, conn)
	}()
	var pending sync.WaitGroup
	r := proto.NewReader(conn)
	reqs := 0
	for {
		m, err := r.ReadMsg()
		if err != nil {
			break
		}
		reqs++
		if m.Value != nil {
			m.Value = append([]byte(nil), m.Value...)
		}
		pending.Add(1)
		go func(m *proto.Msg) {
			defer pending.Done()
			if resp := s.handle(m); resp != nil {
				resp.Seq = m.Seq
				defer func() { recover() }() //nolint:errcheck // late response after close
				out <- proto.Outgoing{Msg: resp}
			}
		}(m)
		if s.dropAfter > 0 && reqs >= s.dropAfter {
			break
		}
	}
	conn.Close()
	pending.Wait()
	close(out)
	<-writerDone
}

func (s *muxTestServer) addr() string { return s.ln.Addr().String() }

// closeConns severs every connection accepted so far, server side.
func (s *muxTestServer) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

// echoHandler answers GETs with the key echoed back as the value.
func echoHandler(m *proto.Msg) *proto.Msg {
	switch m.Type {
	case proto.MsgGet, proto.MsgFill:
		return &proto.Msg{Type: proto.MsgGetResp, Status: proto.StatusOK,
			Version: 1, Value: []byte(m.Key)}
	case proto.MsgPing:
		return &proto.Msg{Type: proto.MsgPong}
	default:
		return &proto.Msg{Type: proto.MsgErr, Err: "unexpected"}
	}
}

// TestMuxInterleavedOnOneConnection drives many concurrent requests
// through a single multiplexed connection and checks every caller gets
// its own answer back (no cross-wiring of responses).
func TestMuxInterleavedOnOneConnection(t *testing.T) {
	s := startMuxTestServer(t, echoHandler, 0)
	c := New(s.addr(), Options{MaxConns: 1})
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i)
				v, _, err := c.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				if string(v) != key {
					t.Errorf("Get(%q) returned %q: responses cross-wired", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.accepted.Load(); n != 1 {
		t.Errorf("1600 concurrent requests used %d connections, want 1 (no multiplexing?)", n)
	}
}

// TestMuxOutOfOrderCompletion pins a slow request on the shared
// connection and checks that requests issued after it complete first —
// the seq-keyed demux, not arrival order, routes responses.
func TestMuxOutOfOrderCompletion(t *testing.T) {
	slowRelease := make(chan struct{})
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		if m.Key == "slow" {
			<-slowRelease
		}
		return echoHandler(m)
	}, 0)
	c := New(s.addr(), Options{MaxConns: 1})
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		v, _, err := c.Get("slow")
		if err == nil && string(v) != "slow" {
			err = fmt.Errorf("slow got %q", v)
		}
		slowDone <- err
	}()

	// While "slow" is parked server-side, later requests on the same
	// connection must complete.
	fastDeadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("fast-%d", i)
		v, _, err := c.Get(key)
		if err != nil || string(v) != key {
			t.Fatalf("fast request behind a slow one: %q %v", v, err)
		}
		if time.Now().After(fastDeadline) {
			t.Fatal("fast requests took too long: pipelining is not working")
		}
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow request completed before release: %v", err)
	default:
	}
	close(slowRelease)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request after release: %v", err)
	}
}

// TestMuxConnDeathFailsAllWaiters parks many requests on one connection
// and kills it; every waiter must get an error promptly — none may hang.
func TestMuxConnDeathFailsAllWaiters(t *testing.T) {
	const parked = 16
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		if m.Type == proto.MsgPing {
			return &proto.Msg{Type: proto.MsgPong}
		}
		return nil // black-hole: park every GET
	}, parked)
	c := New(s.addr(), Options{MaxConns: 1, RequestTimeout: 30 * time.Second})
	defer c.Close()

	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func(i int) {
			_, _, err := c.Get(fmt.Sprintf("k-%d", i))
			errs <- err
		}(i)
	}
	// After `parked` reads the server severs the connection; all waiters
	// must fail well before their 30s request timeout.
	deadline := time.After(5 * time.Second)
	for i := 0; i < parked; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("request on a severed connection succeeded")
			}
		case <-deadline:
			t.Fatalf("%d/%d waiters still hung after the connection died", parked-i, parked)
		}
	}
	// The transport recovers by re-dialing a fresh connection.
	if err := c.Ping(); err != nil {
		t.Fatalf("transport did not recover after conn death: %v", err)
	}
}

// TestMuxTimeoutDoesNotKillNeighbors lets one request time out and
// checks (a) its neighbors in flight on the same connection still
// succeed, and (b) the connection itself survives — per-waiter timers,
// not conn deadlines.
func TestMuxTimeoutDoesNotKillNeighbors(t *testing.T) {
	release := make(chan struct{})
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		if m.Key == "blackhole" {
			<-release // parked far past the request timeout
		}
		return echoHandler(m)
	}, 0)
	defer close(release)
	c := New(s.addr(), Options{MaxConns: 1, RequestTimeout: 150 * time.Millisecond})
	defer c.Close()

	if err := c.Ping(); err != nil { // establish the one connection
		t.Fatal(err)
	}

	timedOut := make(chan error, 1)
	go func() {
		_, _, err := c.Get("blackhole")
		timedOut <- err
	}()

	// Neighbors keep succeeding while the black-hole request ages out.
	stop := time.After(400 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
			if v, _, err := c.Get("neighbor"); err != nil || string(v) != "neighbor" {
				t.Fatalf("neighbor failed during a pending timeout: %q %v", v, err)
			}
		}
	}
	select {
	case err := <-timedOut:
		if err == nil {
			t.Fatal("black-hole request succeeded")
		}
		if !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("black-hole request failed with a non-timeout error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("black-hole request never timed out")
	}
	// The shared connection must have survived the timeout.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection died with the timed-out request: %v", err)
	}
	if n := s.accepted.Load(); n != 1 {
		t.Errorf("timeout forced a re-dial: %d connections used, want 1", n)
	}
}

// TestMuxCloseFailsInFlight verifies Close errors out parked requests
// instead of leaving them hanging.
func TestMuxCloseFailsInFlight(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		<-release
		return echoHandler(m)
	}, 0)
	c := New(s.addr(), Options{MaxConns: 2, RequestTimeout: 30 * time.Second})

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			_, _, err := c.Get(fmt.Sprintf("k-%d", i))
			errs <- err
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the requests reach the wire
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("in-flight request after Close: %v, want ErrClosed", err)
			}
		case <-deadline:
			t.Fatal("in-flight request hung across Close")
		}
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close: %v", err)
	}
}

// TestMuxValueDoesNotAliasFramingBuffer: a returned value must survive
// subsequent traffic on the same connection.
func TestMuxValueDoesNotAliasFramingBuffer(t *testing.T) {
	s := startMuxTestServer(t, echoHandler, 0)
	c := New(s.addr(), Options{MaxConns: 1})
	defer c.Close()
	va, _, err := c.Get("aaaaaaaa")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, _, err := c.Get("bbbbbbbb"); err != nil {
			t.Fatal(err)
		}
	}
	if string(va) != "aaaaaaaa" {
		t.Errorf("value aliased the framing buffer: %q", va)
	}
}

// TestMuxStaleConnRedialed: once the server has closed the client's
// connection, the next request goes out on a fresh one instead of
// failing on the dead socket.
func TestMuxStaleConnRedialed(t *testing.T) {
	s := startMuxTestServer(t, echoHandler, 0)
	c := New(s.addr(), Options{MaxConns: 1})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	s.closeConns()
	// Until the demux reader has seen the close, a request would still be
	// written to the dead socket — and a request that may have reached the
	// wire is never retried.
	for deadline := time.Now().Add(5 * time.Second); c.tr.slots[0].live() != nil; {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the server-side close")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("request after a server-side close was not re-dialed: %v", err)
	}
	if n := s.accepted.Load(); n != 2 {
		t.Errorf("%d connections accepted, want 2 (the original and the re-dial)", n)
	}
}

// halfFail puts mc in the state muxConn.fail leaves it in between
// recording the error and closing done: slot.get still hands the
// connection out, and start refuses every request before it is queued —
// the "provably never left this client" failure the retry loop exists
// for. The returned func completes the failure.
func halfFail(mc *muxConn) (finish func()) {
	mc.mu.Lock()
	mc.err = errors.New("test: connection breaking")
	mc.mu.Unlock()
	return func() {
		close(mc.done)
		mc.c.Close()
	}
}

// TestMuxRetryBounded: a request refused by a breaking connection is
// retried on another connection, and when every attempt lands on a
// breaking one the loop gives up after MaxAttempts with the attempt-cap
// error instead of spinning.
func TestMuxRetryBounded(t *testing.T) {
	s := startMuxTestServer(t, echoHandler, 0)

	t.Run("retried on a healthy connection", func(t *testing.T) {
		c := New(s.addr(), Options{MaxConns: 2, MaxAttempts: 2})
		defer c.Close()
		for i := 0; i < 2; i++ { // round robin: one connection per slot
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
		}
		defer halfFail(c.tr.slots[0].mc)()
		// Two consecutive requests start on different slots, so one of
		// them starts on the breaking connection.
		for i := 0; i < 2; i++ {
			if err := c.Ping(); err != nil {
				t.Fatalf("ping %d not retried on the healthy connection: %v", i, err)
			}
		}
	})

	t.Run("gives up after MaxAttempts", func(t *testing.T) {
		c := New(s.addr(), Options{MaxConns: 1, MaxAttempts: 2})
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		finish := halfFail(c.tr.slots[0].mc)
		err := c.Ping()
		if err == nil || !strings.Contains(err.Error(), "failed after 2 attempts on broken connections") {
			t.Errorf("ping on a breaking connection = %v, want the attempt-cap error", err)
		}
		finish()
		if err := c.Ping(); err != nil {
			t.Errorf("client did not recover once the connection finished breaking: %v", err)
		}
	})
}

// recorder is a Completion that decodes the lent response in place,
// optionally starts a follow-up request from inside the call (which
// deadlocks if the client invokes completions under one of its locks),
// and counts how often it was called.
type recorder struct {
	key   string
	then  func()
	calls atomic.Int32
	got   chan recorded // buffered: a second call is counted, never blocks
}

type recorded struct {
	value string
	err   error
}

func newRecorder(key string, then func()) *recorder {
	return &recorder{key: key, then: then, got: make(chan recorded, 4)}
}

func (r *recorder) Complete(resp *proto.Msg, err error) {
	r.calls.Add(1)
	rec := recorded{err: err}
	if err == nil {
		var v []byte
		v, _, rec.err = DecodeGet(resp, r.key)
		rec.value = string(v) // copied: resp is only lent
	}
	if r.then != nil {
		r.then()
	}
	r.got <- rec
}

func (r *recorder) wait(t *testing.T) recorded {
	t.Helper()
	select {
	case rec := <-r.got:
		return rec
	case <-time.After(5 * time.Second):
		t.Fatalf("completion for %q never fired", r.key)
		return recorded{}
	}
}

// TestCompletionFiresExactlyOnce settles an asynchronous GET each of the
// ways a request can end — response, janitor timeout, connection failure,
// Close — and checks that its completion runs exactly once, with the
// right outcome, and outside the client's locks: every completion starts
// a follow-up request on the same client from inside the call.
func TestCompletionFiresExactlyOnce(t *testing.T) {
	cases := []struct {
		name      string
		key       string
		dropAfter int
		settle    func(c *Client, release chan struct{})
		check     func(t *testing.T, rec recorded)
		followErr error // what the follow-up started inside the completion sees
	}{
		{
			name: "response", key: "answered",
			check: func(t *testing.T, rec recorded) {
				if rec.err != nil || rec.value != "answered" {
					t.Errorf("completion got %q, %v", rec.value, rec.err)
				}
			},
		},
		{
			name: "timeout", key: "blackhole",
			check: func(t *testing.T, rec recorded) {
				if rec.err == nil || !strings.Contains(rec.err.Error(), "timed out") {
					t.Errorf("completion got %v, want a timeout", rec.err)
				}
			},
		},
		{
			// The server severs the connection after the warm-up ping and
			// the parked GET; the follow-up re-dials.
			name: "connection failure", key: "blackhole", dropAfter: 2,
			check: func(t *testing.T, rec recorded) {
				if rec.err == nil || strings.Contains(rec.err.Error(), "timed out") {
					t.Errorf("completion got %v, want a connection error", rec.err)
				}
			},
		},
		{
			name: "close", key: "blackhole",
			settle: func(c *Client, _ chan struct{}) { c.Close() },
			check: func(t *testing.T, rec recorded) {
				if !errors.Is(rec.err, ErrClosed) {
					t.Errorf("completion got %v, want ErrClosed", rec.err)
				}
			},
			followErr: ErrClosed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
				if m.Key == "blackhole" {
					<-release
				}
				return echoHandler(m)
			}, tc.dropAfter)
			c := New(s.addr(), Options{MaxConns: 1, RequestTimeout: 150 * time.Millisecond})
			defer c.Close()
			if err := c.Ping(); err != nil { // a live connection: the in-place path
				t.Fatal(err)
			}

			follow := newRecorder("follow-up", nil)
			first := newRecorder(tc.key, func() { c.GetAsync("follow-up", 0, follow) })
			req := newReq(proto.MsgGet)
			req.Key = tc.key
			if !c.tr.start(req, first) {
				t.Fatal("start refused a live connection")
			}
			proto.PutMsg(req)
			if tc.settle != nil {
				time.Sleep(20 * time.Millisecond) // let the request reach the wire
				tc.settle(c, release)
			}
			tc.check(t, first.wait(t))
			if rec := follow.wait(t); !errors.Is(rec.err, tc.followErr) || (tc.followErr == nil && rec.value != "follow-up") {
				t.Errorf("follow-up started inside the completion got %q, %v; want error %v", rec.value, rec.err, tc.followErr)
			}

			// The parked request's late answer (and anything else) must not
			// fire the completion again.
			close(release)
			for i := 0; i < 3; i++ {
				c.Ping() //nolint:errcheck // only flushing late responses through the reader
			}
			time.Sleep(50 * time.Millisecond)
			if n := first.calls.Load(); n != 1 {
				t.Errorf("completion fired %d times, want exactly 1", n)
			}
			if n := follow.calls.Load(); n != 1 {
				t.Errorf("follow-up completion fired %d times, want exactly 1", n)
			}
		})
	}
}

// TestGetAsyncColdAndServerErrors covers the two ends the table above
// does not: a client with no connection yet (the dial runs off the
// caller's goroutine and the answer is lent the same way), and answers
// that DecodeGet must turn into the errors Get returns.
func TestGetAsyncColdAndServerErrors(t *testing.T) {
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		switch m.Key {
		case "missing":
			return &proto.Msg{Type: proto.MsgGetResp, Status: proto.StatusNotFound}
		case "refused":
			return &proto.Msg{Type: proto.MsgErr, Err: "no"}
		}
		return echoHandler(m)
	}, 0)
	c := New(s.addr(), Options{MaxConns: 1})
	defer c.Close()

	cold := newRecorder("cold", nil)
	c.GetAsync("cold", 0, cold)
	if rec := cold.wait(t); rec.err != nil || rec.value != "cold" {
		t.Fatalf("cold GetAsync got %q, %v", rec.value, rec.err)
	}
	for key, want := range map[string]error{"missing": ErrNotFound, "refused": ErrServer} {
		r := newRecorder(key, nil)
		c.GetAsync(key, 0, r)
		if rec := r.wait(t); !errors.Is(rec.err, want) {
			t.Errorf("GetAsync(%q) decoded to %v, want %v", key, rec.err, want)
		}
		if _, _, err := c.Get(key); !errors.Is(err, want) {
			t.Errorf("Get(%q) = %v, want %v", key, err, want)
		}
	}
	dead := New(deadAddr(t), Options{MaxConns: 1, DialTimeout: time.Second})
	defer dead.Close()
	r := newRecorder("k", nil)
	dead.GetAsync("k", 0, r)
	if rec := r.wait(t); rec.err == nil {
		t.Error("GetAsync to a dead address completed without an error")
	}
}

// FillAsync is GetAsync with the cache-internal verb on the wire — cold
// slot and live connection alike — started on the key's owner.
func TestFillAsyncSendsFill(t *testing.T) {
	var fills atomic.Int64
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		if m.Type == proto.MsgFill {
			fills.Add(1)
		}
		return echoHandler(m)
	}, 0)
	sh, err := NewSharded([]string{s.addr()}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i, key := range []string{"cold", "warm"} {
		r := newRecorder(key, nil)
		sh.For(key).FillAsync(key, 0, r)
		if rec := r.wait(t); rec.err != nil || rec.value != key {
			t.Fatalf("FillAsync(%q) got %q, %v", key, rec.value, rec.err)
		}
		if got := fills.Load(); got != int64(i+1) {
			t.Fatalf("%d FILLs on the wire after %d FillAsync calls", got, i+1)
		}
	}
}

// batchRecorder is recorder's MGET twin: it decodes the lent batch in
// place against the keys it asked for and keeps copies.
type batchRecorder struct {
	keys []string
	got  chan batchRecorded // buffered: a second call never blocks
}

type batchRecorded struct {
	values []string // "" for a key not found
	err    error
}

func newBatchRecorder(keys ...string) *batchRecorder {
	return &batchRecorder{keys: keys, got: make(chan batchRecorded, 4)}
}

func (r *batchRecorder) Complete(resp *proto.Msg, err error) {
	rec := batchRecorded{err: err}
	if err == nil {
		var ops []proto.BatchOp
		ops, rec.err = DecodeMGet(resp, r.keys)
		for _, op := range ops {
			rec.values = append(rec.values, string(op.Value)) // copied: resp is only lent
		}
	}
	r.got <- rec
}

func (r *batchRecorder) wait(t *testing.T) batchRecorded {
	t.Helper()
	select {
	case rec := <-r.got:
		return rec
	case <-time.After(5 * time.Second):
		t.Fatalf("completion for MGET %v never fired", r.keys)
		return batchRecorded{}
	}
}

// TestMGetAsyncColdAndServerErrors is TestGetAsyncColdAndServerErrors
// for the batch verb: the cold-slot fallback lends its answer the same
// way, a traced request comes back traced, and DecodeMGet turns every
// malformed or refused answer into the error MGet returns.
func TestMGetAsyncColdAndServerErrors(t *testing.T) {
	var sawTrace atomic.Uint64
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		if m.Type != proto.MsgMGet {
			return echoHandler(m)
		}
		if m.Trace != nil {
			sawTrace.Store(m.Trace.ID)
		}
		resp := &proto.Msg{Type: proto.MsgMGetResp, Trace: m.Trace}
		for _, k := range m.Keys {
			switch k {
			case "refused":
				return &proto.Msg{Type: proto.MsgErr, Err: "no"}
			case "short":
				return resp // answers fewer keys than asked
			case "swapped":
				k = "other"
			case "missing":
				resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: k})
				continue
			}
			resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Version: 1, Value: []byte(k)})
		}
		return resp
	}, 0)
	c := New(s.addr(), Options{MaxConns: 1})
	defer c.Close()

	cold := newBatchRecorder("a", "missing", "b", "a")
	c.MGetAsync(cold.keys, 0x7ace, cold)
	rec := cold.wait(t)
	if rec.err != nil || strings.Join(rec.values, ",") != "a,,b,a" {
		t.Fatalf("cold MGetAsync got %q, %v", rec.values, rec.err)
	}
	if sawTrace.Load() != 0x7ace {
		t.Errorf("server saw trace ID %#x, want 0x7ace", sawTrace.Load())
	}
	warm := newBatchRecorder("x", "y")
	c.MGetAsync(warm.keys, 0, warm)
	if rec := warm.wait(t); rec.err != nil || strings.Join(rec.values, ",") != "x,y" {
		t.Fatalf("warm MGetAsync got %q, %v", rec.values, rec.err)
	}
	for key, want := range map[string]string{
		"refused": ErrServer.Error(),
		"short":   "answered 1 keys for 2 requested",
		"swapped": "out of order",
	} {
		r := newBatchRecorder("a", key)
		c.MGetAsync(r.keys, 0, r)
		rec := r.wait(t)
		if rec.err == nil || !strings.Contains(rec.err.Error(), want) {
			t.Errorf("MGetAsync(a, %s) decoded to %v, want %q", key, rec.err, want)
		}
		if _, err := c.MGet(r.keys); err == nil || err.Error() != rec.err.Error() {
			t.Errorf("MGet(a, %s) = %v, MGetAsync decoded to %v", key, err, rec.err)
		}
	}
	dead := New(deadAddr(t), Options{MaxConns: 1, DialTimeout: time.Second})
	defer dead.Close()
	r := newBatchRecorder("k")
	dead.MGetAsync(r.keys, 0, r)
	if rec := r.wait(t); rec.err == nil {
		t.Error("MGetAsync to a dead address completed without an error")
	}
}

// doneFunc adapts a func to Completion.
type doneFunc func(resp *proto.Msg, err error)

func (f doneFunc) Complete(resp *proto.Msg, err error) { f(resp, err) }

// The asynchronous write verbs — PutAsync, MPutAsync, RestoreAsync — put the
// same frames on the wire as their blocking twins, their Decode functions
// return what the twins return, and the request bytes are only borrowed: the
// caller overwrites its buffers the moment each call returns, on a cold slot
// (the fallback goroutine has yet to dial) and on a live connection alike.
func TestAsyncWriteVerbsBorrowTheirRequest(t *testing.T) {
	type seen struct {
		typ   proto.MsgType
		key   string
		value string
		ops   []string // key=value@version
		freqs int
		trace uint64
	}
	got := make(chan seen, 16)
	s := startMuxTestServer(t, func(m *proto.Msg) *proto.Msg {
		sn := seen{typ: m.Type, key: m.Key, value: string(m.Value), freqs: len(m.Freqs)}
		if m.Trace != nil {
			sn.trace = m.Trace.ID
		}
		for _, op := range m.Ops {
			sn.ops = append(sn.ops, fmt.Sprintf("%s=%s@%d", op.Key, op.Value, op.Version))
		}
		got <- sn
		switch {
		case m.Key == "refused":
			return &proto.Msg{Type: proto.MsgErr, Err: "no"}
		case m.Type == proto.MsgPut:
			return &proto.Msg{Type: proto.MsgPutResp, Status: proto.StatusOK, Version: 9}
		case m.Type == proto.MsgMPut:
			resp := &proto.Msg{Type: proto.MsgMPutResp}
			for i, op := range m.Ops {
				o := proto.BatchOp{Kind: proto.BatchUpdate, Key: op.Key, Version: uint64(i + 1)}
				if op.Key == "bad" {
					o = proto.BatchOp{Kind: proto.BatchInvalidate, Key: op.Key}
				}
				resp.Ops = append(resp.Ops, o)
			}
			return resp
		case m.Type == proto.MsgRepWrite:
			return &proto.Msg{Type: proto.MsgPong}
		}
		return echoHandler(m)
	}, 0)

	for _, phase := range []string{"cold", "live"} {
		live := New(s.addr(), Options{MaxConns: 1})
		defer live.Close()
		if err := live.Ping(); err != nil {
			t.Fatal(err)
		}
		<-got
		// client returns one whose slot is still to be dialed, or the live one.
		client := func() *Client {
			if phase == "live" {
				return live
			}
			c := New(s.addr(), Options{MaxConns: 1})
			t.Cleanup(func() { c.Close() })
			return c
		}
		type outcome struct {
			version uint64
			ops     []proto.BatchOp
			err     error
		}
		done := make(chan outcome, 1)
		wait := func(what string) (outcome, seen) {
			t.Helper()
			var o outcome
			var sn seen
			for i := 0; i < 2; i++ {
				select {
				case o = <-done:
				case sn = <-got:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s %s: the request reached the server and completed only in part: %+v, %+v", phase, what, o, sn)
				}
			}
			return o, sn
		}

		value := []byte("first")
		client().PutAsync("k", value, 7, doneFunc(func(resp *proto.Msg, err error) {
			o := outcome{err: err}
			if err == nil {
				o.version, o.err = DecodePut(resp, "k")
			}
			done <- o
		}))
		copy(value, "XXXXX")
		if o, sn := wait("PutAsync"); o.err != nil || o.version != 9 || sn.typ != proto.MsgPut || sn.value != "first" || sn.trace != 7 {
			t.Errorf("%s PutAsync: answered %d, %v; the server saw %+v", phase, o.version, o.err, sn)
		}
		client().PutAsync("refused", nil, 0, doneFunc(func(resp *proto.Msg, err error) {
			if err == nil {
				_, err = DecodePut(resp, "refused")
			}
			done <- outcome{err: err}
		}))
		if o, _ := wait("refused PutAsync"); !errors.Is(o.err, ErrServer) {
			t.Errorf("%s refused PutAsync: %v, want ErrServer", phase, o.err)
		}

		keys := []string{"a", "bad", "c"}
		ops := []proto.BatchOp{
			{Kind: proto.BatchUpdate, Key: "a", Value: []byte("va")},
			{Kind: proto.BatchUpdate, Key: "bad", Value: []byte("vb")},
			{Kind: proto.BatchUpdate, Key: "c", Value: []byte("vc")},
		}
		client().MPutAsync(ops, 0, doneFunc(func(resp *proto.Msg, err error) {
			o := outcome{err: err}
			if err == nil {
				var res []proto.BatchOp
				res, o.err = DecodeMPut(resp, keys)
				o.ops = append(o.ops, res...) // copied: resp is only lent
			}
			done <- o
		}))
		copy(ops[0].Value, "XX")
		ops[2] = proto.BatchOp{}
		o, sn := wait("MPutAsync")
		if o.err != nil || len(o.ops) != 3 || o.ops[0].Version != 1 || o.ops[1].Kind != proto.BatchInvalidate || o.ops[2].Version != 3 {
			t.Errorf("%s MPutAsync: answered %+v, %v", phase, o.ops, o.err)
		}
		if want := "a=va@0 bad=vb@0 c=vc@0"; sn.typ != proto.MsgMPut || strings.Join(sn.ops, " ") != want {
			t.Errorf("%s MPutAsync: the server saw %+v, want %s", phase, sn, want)
		}

		rops := []proto.BatchOp{{Kind: proto.BatchUpdate, Key: "r", Value: []byte("vr"), Version: 41}}
		freqs := []proto.KeyFreq{{Key: "r", Reads: 3, Writes: 1}}
		client().RestoreAsync(rops, freqs, 0, 11, doneFunc(func(resp *proto.Msg, err error) {
			if err == nil {
				err = DecodeRestore(resp)
			}
			done <- outcome{err: err}
		}))
		copy(rops[0].Value, "XX")
		rops[0], freqs[0] = proto.BatchOp{}, proto.KeyFreq{}
		if o, sn := wait("RestoreAsync"); o.err != nil || sn.typ != proto.MsgRepWrite || strings.Join(sn.ops, " ") != "r=vr@41" || sn.freqs != 1 || sn.trace != 11 {
			t.Errorf("%s RestoreAsync: %v; the server saw %+v", phase, o.err, sn)
		}
	}
}
