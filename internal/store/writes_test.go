package store

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
)

// Write-completion tests: a primary's replication and forward legs are
// started from its connection's read loop and the ack is queued by the last
// leg's completion, on a peer connection's reader. The peers here are fakes
// the test holds back, refuses through or stalls, so "before the last leg
// answered" is a state the test can stand in.

// fakePeer is a store only as far as a primary's legs can tell: it answers
// every restore push with PONG (MsgErr while refuse is set) once release is
// closed, records what each push carried, and refuses everything else.
type fakePeer struct {
	ln      net.Listener
	release chan struct{}
	refuse  atomic.Bool

	mu     sync.Mutex
	pushes [][]proto.BatchOp // one entry per restore push, values copied
	conns  []net.Conn
}

func startFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakePeer{ln: ln, release: make(chan struct{})}
	t.Cleanup(func() {
		ln.Close()
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, c := range f.conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, conn)
			f.mu.Unlock()
			go f.serve(conn)
		}
	}()
	return f
}

func (f *fakePeer) addr() string { return f.ln.Addr().String() }

func (f *fakePeer) serve(conn net.Conn) {
	var wmu sync.Mutex
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	reply := func(m *proto.Msg) {
		wmu.Lock()
		defer wmu.Unlock()
		w.WriteMsg(m) //nolint:errcheck // the test may have closed conn
	}
	for {
		m, err := r.ReadMsg()
		if err != nil {
			return
		}
		if m.Type != proto.MsgRepWrite {
			reply(&proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "fake peer: unexpected " + m.Type.String()})
			continue
		}
		ops := make([]proto.BatchOp, len(m.Ops))
		for i, op := range m.Ops {
			ops[i] = op
			ops[i].Value = append([]byte(nil), op.Value...)
		}
		f.mu.Lock()
		f.pushes = append(f.pushes, ops)
		f.mu.Unlock()
		seq := m.Seq
		go func() {
			<-f.release
			if f.refuse.Load() {
				reply(&proto.Msg{Type: proto.MsgErr, Seq: seq, Err: "fake peer: refused"})
				return
			}
			reply(&proto.Msg{Type: proto.MsgPong, Seq: seq})
		}()
	}
}

func (f *fakePeer) pushed() [][]proto.BatchOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]proto.BatchOp(nil), f.pushes...)
}

// startPrimary runs one real store as a member of a ring whose other
// members are the fakes, under replication factor replicas.
func startPrimary(t *testing.T, replicas int, fakes ...*fakePeer) (*Server, string, *ring.Ring) {
	t.Helper()
	s, addr := startStore(t, Config{ShardID: "primary", Logger: log.New(io.Discard, "", 0)})
	nodes := []string{addr}
	for _, f := range fakes {
		nodes = append(nodes, f.addr())
	}
	if err := dial(t, addr).Release(client.RingInfo{Epoch: 1, Nodes: nodes, Replicas: replicas}, addr); err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, addr, r
}

// rawConn pipelines frames to a store and sees every frame it sends back.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	w    *proto.Writer
	r    *proto.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, w: proto.NewWriter(conn), r: proto.NewReader(conn)}
}

func (rc *rawConn) send(m *proto.Msg) {
	rc.t.Helper()
	if err := rc.w.WriteMsg(m); err != nil {
		rc.t.Fatal(err)
	}
}

// read returns the next frame, or nil if none arrives within wait.
func (rc *rawConn) read(wait time.Duration) *proto.Msg {
	rc.t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(wait)) //nolint:errcheck
	m, err := rc.r.ReadMsg()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return nil
	}
	if err != nil {
		rc.t.Fatal(err)
	}
	return m
}

// quiesced checks that nothing but the answer to a fresh PING is on its
// way: no request was answered twice.
func (rc *rawConn) quiesced() {
	rc.t.Helper()
	rc.send(&proto.Msg{Type: proto.MsgPing, Seq: 1 << 40})
	if m := rc.read(5 * time.Second); m == nil || m.Type != proto.MsgPong || m.Seq != 1<<40 {
		rc.t.Errorf("the next frame is %+v, want the PONG", m)
	}
	if m := rc.read(100 * time.Millisecond); m != nil {
		rc.t.Errorf("stray frame after the PONG: %+v", m)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Under R = 3 a PUT is acknowledged only after both replicas answered —
// not when the first did — and a replica that refuses turns the ack into an
// error without undoing what the primary and the other replica applied.
func TestReplicatedPutWaitsForEveryLeg(t *testing.T) {
	quick, slow := startFakePeer(t), startFakePeer(t)
	close(quick.release)
	s, addr, r := startPrimary(t, 3, quick, slow)
	keys := keysWhere("k", 2, ownedBy(r, addr))
	rc := dialRaw(t, addr)

	rc.send(&proto.Msg{Type: proto.MsgPut, Seq: 1, Key: keys[0], Value: []byte("v0"), Trace: &proto.Trace{ID: 3}})
	waitUntil(t, "both replicas to be sent the write", func() bool {
		return len(quick.pushed()) == 1 && len(slow.pushed()) == 1
	})
	if m := rc.read(150 * time.Millisecond); m != nil {
		t.Fatalf("answered %+v with one replica yet to confirm", m)
	}
	_, applied, ok := s.Authority().Get(keys[0])
	if !ok {
		t.Fatal("the primary has not applied the write its replicas were sent")
	}
	if got := s.repRTT.Count(); got != 1 {
		t.Errorf("%d replication RTT samples with one of two legs in, want 1", got)
	}
	close(slow.release)
	m := rc.read(5 * time.Second)
	if m == nil || m.Type != proto.MsgPutResp || m.Seq != 1 || m.Version != applied {
		t.Fatalf("answered %+v, want version %d", m, applied)
	}
	for _, f := range []*fakePeer{quick, slow} {
		if p := f.pushed()[0]; len(p) != 1 || p[0].Key != keys[0] || string(p[0].Value) != "v0" || p[0].Version != applied {
			t.Errorf("replica %s was sent %+v, want %q=v0 at version %d", f.addr(), p, keys[0], applied)
		}
	}
	if m.Trace == nil || len(m.Trace.Spans) != 1 || m.Trace.Spans[0].Node != "store:primary" {
		t.Errorf("trace = %+v, want the primary's span (the fakes add none)", m.Trace)
	}

	slow.refuse.Store(true)
	rc.send(&proto.Msg{Type: proto.MsgPut, Seq: 2, Key: keys[1], Value: []byte("v1")})
	m = rc.read(5 * time.Second)
	if m == nil || m.Type != proto.MsgErr || m.Seq != 2 ||
		!strings.Contains(m.Err, "replicating 1 writes to "+slow.addr()) || !strings.Contains(m.Err, "fake peer: refused") {
		t.Fatalf("answered %+v, want the refusing replica's error", m)
	}
	_, applied, ok = s.Authority().Get(keys[1])
	if !ok {
		t.Error("the refused write is not applied locally")
	}
	if p := quick.pushed(); len(p) != 2 || p[1][0].Key != keys[1] || p[1][0].Version != applied {
		t.Errorf("the other replica was sent %+v, want it to hold %q at version %d", p, keys[1], applied)
	}
	if got := s.c.RepWritesOut.Value(); got != 3 {
		t.Errorf("rep_writes_out = %d, want 3 (two legs, then the one that was not refused)", got)
	}
	rc.quiesced()
}

// An MPUT whose keys replicate to two different peers rides two legs; the
// one that fails withholds exactly its own keys' acks.
func TestBatchFailsOnlyTheFailedLegsOps(t *testing.T) {
	good, bad := startFakePeer(t), startFakePeer(t)
	close(good.release)
	close(bad.release)
	bad.refuse.Store(true)
	s, addr, r := startPrimary(t, 2, good, bad)
	via := func(f *fakePeer) []string {
		return keysWhere("k", 2, func(k string) bool { return r.OwnerAddr(k) == addr && r.Replicas(k, 2)[1] == f.addr() })
	}
	viaGood, viaBad := via(good), via(bad)
	keys := []string{viaGood[0], viaBad[0], viaBad[1], viaGood[1]}

	rc := dialRaw(t, addr)
	req := &proto.Msg{Type: proto.MsgMPut, Seq: 9}
	for _, k := range keys {
		req.Ops = append(req.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: []byte("v:" + k)})
	}
	rc.send(req)
	m := rc.read(5 * time.Second)
	if m == nil || m.Type != proto.MsgMPutResp || m.Seq != 9 || len(m.Ops) != len(keys) || m.Digest != proto.KeysDigest(keys) {
		t.Fatalf("answered %+v", m)
	}
	for i, op := range m.Ops {
		_, applied, _ := s.Authority().Get(keys[i])
		failed := i == 1 || i == 2
		switch {
		case failed && (op.Kind != proto.BatchInvalidate || op.Version != 0):
			t.Errorf("op %d (its replica refused) = %+v, want a bare BatchInvalidate", i, op)
		case !failed && (op.Kind != proto.BatchUpdate || op.Version != applied || applied == 0):
			t.Errorf("op %d = %+v, want acknowledged at version %d", i, op, applied)
		}
	}
	for _, leg := range []struct {
		f    *fakePeer
		keys []string
	}{{good, viaGood}, {bad, viaBad}} {
		p := leg.f.pushed()
		if len(p) != 1 || len(p[0]) != 2 || p[0][0].Key != leg.keys[0] || p[0][1].Key != leg.keys[1] ||
			string(p[0][1].Value) != "v:"+leg.keys[1] {
			t.Errorf("peer %s was sent %+v, want one push of %v", leg.f.addr(), p, leg.keys)
		}
	}
	rc.quiesced()
}

// A PUT forwarded to the key's owner is answered with the version the owner
// assigned, shows the owner's hop inside the forwarder's, and a forwarded
// batch passes a key the owner could not acknowledge through as failed —
// alone.
func TestForwardLegTakesTheOwnersAnswer(t *testing.T) {
	stores, addrs, r := startStores(t, 2, 1)
	stores[1].Authority().BumpVersion(1000)
	theirs := keysWhere("k", 2, ownedBy(r, addrs[1]))
	rc := dialRaw(t, addrs[0])

	rc.send(&proto.Msg{Type: proto.MsgPut, Seq: 1, Key: theirs[0], Value: []byte("v"), Trace: &proto.Trace{ID: 7}})
	m := rc.read(5 * time.Second)
	if m == nil || m.Type != proto.MsgPutResp || m.Version <= 1000 {
		t.Fatalf("answered %+v, want a version the owner assigned (past 1000)", m)
	}
	holds(t, stores[1], theirs[0], m.Version)
	var hops []string
	for _, sp := range m.Trace.Spans {
		hops = append(hops, sp.Node)
	}
	if got := strings.Join(hops, " "); got != "store:s1 store:s0" {
		t.Errorf("hops = %q, want the owner's inside the forwarder's", got)
	}

	// The owner now replicates to a peer that is not there: it applies the
	// forwarded write but cannot acknowledge it.
	gone := startFakePeer(t)
	nodes := []string{addrs[0], addrs[1], gone.addr()}
	r3, err := ring.New(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	gone.ln.Close()
	for _, a := range addrs {
		if err := dial(t, a).Release(client.RingInfo{Epoch: 2, Nodes: nodes, Replicas: 2}, a); err != nil {
			t.Fatal(err)
		}
	}
	unacked := keysWhere("u", 1, func(k string) bool {
		return r3.OwnerAddr(k) == addrs[1] && r3.Replicas(k, 2)[1] == gone.addr()
	})
	acked := keysWhere("a", 1, func(k string) bool {
		return r3.OwnerAddr(k) == addrs[1] && r3.Replicas(k, 2)[1] == addrs[0]
	})
	req := &proto.Msg{Type: proto.MsgMPut, Seq: 2}
	for _, k := range []string{acked[0], unacked[0]} {
		req.Ops = append(req.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: []byte("w")})
	}
	rc.send(req)
	m = rc.read(10 * time.Second)
	if m == nil || m.Type != proto.MsgMPutResp || len(m.Ops) != 2 || m.Digest != proto.KeysDigest([]string{acked[0], unacked[0]}) {
		t.Fatalf("answered %+v", m)
	}
	if op := m.Ops[0]; op.Kind != proto.BatchUpdate || op.Version <= 1000 {
		t.Errorf("the acknowledged key answered %+v, want the owner's version", op)
	} else {
		holds(t, stores[1], acked[0], op.Version)
		holds(t, stores[0], acked[0], op.Version) // this store is its replica
	}
	if op := m.Ops[1]; op.Kind != proto.BatchInvalidate || op.Version != 0 {
		t.Errorf("the key the owner could not replicate answered %+v, want a bare BatchInvalidate", op)
	}
	rc.quiesced()
}

// Replicated PUTs to one key pipelined on one connection are applied, and
// versioned, in the order they were read — the local apply never leaves the
// connection's goroutine — so the last one sent is the one both stores end
// up holding.
func TestPipelinedPutsKeepVersionOrder(t *testing.T) {
	stores, addrs, r := startStores(t, 2, 2)
	key := keysWhere("k", 1, ownedBy(r, addrs[0]))[0]
	rc := dialRaw(t, addrs[0])
	const n = 64
	for i := 1; i <= n; i++ {
		rc.send(&proto.Msg{Type: proto.MsgPut, Seq: uint64(i), Key: key, Value: []byte(fmt.Sprintf("v%d", i))})
	}
	versions := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		m := rc.read(5 * time.Second)
		if m == nil || m.Type != proto.MsgPutResp || m.Seq < 1 || m.Seq > n || versions[m.Seq] != 0 {
			t.Fatalf("answer %d: %+v", i, m)
		}
		versions[m.Seq] = m.Version
	}
	for i := 2; i <= n; i++ {
		if versions[i] <= versions[i-1] {
			t.Fatalf("PUT %d got version %d, PUT %d before it %d", i, versions[i], i-1, versions[i-1])
		}
	}
	for _, s := range stores {
		holds(t, s, key, versions[n])
		if v, _, _ := s.Authority().Get(key); string(v) != fmt.Sprintf("v%d", n) {
			t.Errorf("store %s ends up with %q, want the last PUT's value", s.ShardID(), v)
		}
	}
	rc.quiesced()
}

// Close with a write's replication leg still in flight returns — promptly:
// closing the peer clients fails the leg, whose completion answers the
// write and releases its connection.
func TestCloseWithLegsInFlightReturns(t *testing.T) {
	stalled := startFakePeer(t) // never released
	s, addr, r := startPrimary(t, 2, stalled)
	key := keysWhere("k", 1, ownedBy(r, addr))[0]
	rc := dialRaw(t, addr)
	rc.send(&proto.Msg{Type: proto.MsgPut, Seq: 1, Key: key, Value: []byte("v")})
	waitUntil(t, "the replica to be sent the write", func() bool { return len(stalled.pushed()) == 1 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a replication leg in flight")
	}
}
