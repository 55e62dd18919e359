package cache

import (
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
)

// stubStore is an authority the test scripts: it answers the
// subscription handshake and then stays silent, serves fills from a
// table (parking any fill that touches a key in slow until release is
// closed, answering MsgErr when refuse is set), acknowledges PUTs at version
// 7 under the same two rules, counts the FILL, MFILL and PUT frames it is
// sent, records every read report, and kill severs everything mid-flight.
type stubStore struct {
	ln      net.Listener
	slow    map[string]bool
	release chan struct{}
	refuse  bool // set before the first fill

	fills, mfills, puts atomic.Int64 // frames read

	mu      sync.Mutex
	values  map[string]string
	reports map[string]uint32
	conns   []net.Conn
}

func startStubStore(t *testing.T, values map[string]string, slow ...string) *stubStore {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubStore{ln: ln, values: values, slow: map[string]bool{},
		release: make(chan struct{}), reports: map[string]uint32{}}
	for _, k := range slow {
		s.slow[k] = true
	}
	t.Cleanup(s.kill)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
	return s
}

func (s *stubStore) kill() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

func (s *stubStore) value(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.values[key]
	return v, ok
}

// remove deletes key upstream: fills answered from now on do not find it.
func (s *stubStore) remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.values, key)
}

func (s *stubStore) serve(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	reply := func(m *proto.Msg) {
		wmu.Lock()
		defer wmu.Unlock()
		w.WriteMsg(m) //nolint:errcheck // the cache may have gone away
	}
	for {
		m, err := r.ReadMsg()
		if err != nil {
			return
		}
		switch m.Type {
		case proto.MsgSubscribe:
			reply(&proto.Msg{Type: proto.MsgSubResp, Seq: m.Seq, Key: "stub"})
		case proto.MsgReadReport:
			s.mu.Lock()
			for _, rp := range m.Reports {
				s.reports[rp.Key] += rp.Count
			}
			s.mu.Unlock()
			reply(&proto.Msg{Type: proto.MsgPong, Seq: m.Seq})
		case proto.MsgFill:
			resp := &proto.Msg{Type: proto.MsgGetResp, Seq: m.Seq, Status: proto.StatusNotFound, Trace: m.Trace}
			if v, ok := s.value(m.Key); ok {
				resp.Status, resp.Version, resp.Value = proto.StatusOK, 7, []byte(v)
			}
			if s.refuse {
				resp = &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "stub: refused"}
			}
			s.fills.Add(1)
			if s.slow[m.Key] {
				go func() { <-s.release; reply(resp) }()
				continue
			}
			reply(resp)
		case proto.MsgPut:
			resp := &proto.Msg{Type: proto.MsgPutResp, Seq: m.Seq, Status: proto.StatusOK, Version: 7, Trace: m.Trace}
			if s.refuse {
				resp = &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "stub: refused"}
			}
			s.puts.Add(1)
			if s.slow[m.Key] {
				go func() { <-s.release; reply(resp) }()
				continue
			}
			reply(resp)
		case proto.MsgMFill:
			resp := &proto.Msg{Type: proto.MsgMGetResp, Seq: m.Seq}
			park := false
			for _, k := range m.Keys {
				op := proto.BatchOp{Kind: proto.BatchInvalidate, Key: k}
				if v, ok := s.value(k); ok {
					op = proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: []byte(v), Version: 7}
				}
				resp.Ops = append(resp.Ops, op)
				park = park || s.slow[k]
			}
			s.mfills.Add(1)
			if park {
				go func() { <-s.release; reply(resp) }()
				continue
			}
			reply(resp)
		default:
			reply(&proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "stub: unexpected " + m.Type.String()})
		}
	}
}

func (s *stubStore) reported() map[string]uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint32, len(s.reports))
	for k, n := range s.reports {
		out[k] = n
	}
	return out
}

// startOverStub serves a cache in front of the stub. T is an hour, so
// nothing expires and no read report leaves until the test flushes.
func startOverStub(t *testing.T, st *stubStore) (*Server, string) {
	t.Helper()
	return startOverStubTimeout(t, st, 0)
}

// startOverStubTimeout is startOverStub with the store client's 10s
// request timeout, which Config deliberately does not expose, replaced
// when fillTimeout is positive.
func startOverStubTimeout(t *testing.T, st *stubStore, fillTimeout time.Duration) (*Server, string) {
	t.Helper()
	ca, err := New(Config{StoreAddr: st.ln.Addr().String(), T: time.Hour,
		Name: "rtc-cache", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if fillTimeout > 0 {
		ca.stores.Close()
		ca.stores, err = client.NewSharded(ca.cfg.StoreAddrs, 0, client.Options{RequestTimeout: fillTimeout})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ca, serveCache(t, ca)
}

func serveCache(t *testing.T, ca *Server) string {
	t.Helper()
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	t.Cleanup(func() { ca.Close() })
	return cln.Addr().String()
}

// rawConn speaks frames to the cache over one connection, so the test
// decides what is pipelined behind what.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	w    *proto.Writer
	r    *proto.Reader
	seq  uint64
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

// send writes one request and returns its sequence number.
func (c *rawConn) send(m *proto.Msg) uint64 {
	c.t.Helper()
	c.seq++
	m.Seq = c.seq
	if err := c.w.WriteMsg(m); err != nil {
		c.t.Fatal(err)
	}
	return m.Seq
}

func (c *rawConn) get(key string) uint64 {
	return c.send(&proto.Msg{Type: proto.MsgGet, Key: key})
}

func (c *rawConn) mget(keys ...string) uint64 {
	return c.send(&proto.Msg{Type: proto.MsgMGet, Keys: keys})
}

// recv reads the next response, whichever request it answers.
func (c *rawConn) recv() *proto.Msg {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	m, err := c.r.ReadMsg()
	if err != nil {
		c.t.Fatalf("reading a response: %v", err)
	}
	for i := range m.Ops {
		m.Ops[i].Value = append([]byte(nil), m.Ops[i].Value...)
	}
	m.Value = append([]byte(nil), m.Value...)
	return m
}

// quiesced checks nothing is owed on the connection: a PING is answered
// by the very next frame, and then there is silence.
func (c *rawConn) quiesced() {
	c.t.Helper()
	ping := c.send(&proto.Msg{Type: proto.MsgPing})
	if m := c.recv(); m.Type != proto.MsgPong || m.Seq != ping {
		c.t.Errorf("a stray frame ahead of the PONG: %v Seq %d %q", m.Type, m.Seq, m.Err)
	}
	c.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	if m, err := c.r.ReadMsg(); err == nil {
		c.t.Errorf("a frame after the PONG: %v Seq %d", m.Type, m.Seq)
	}
}

func closeReturns(t *testing.T, ca *Server) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		ca.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// Hits pipelined behind a miss on one connection are answered from the
// read loop while the miss's fill is still out; the miss answers last.
func TestHitsOvertakeSlowMiss(t *testing.T) {
	st := startStubStore(t, map[string]string{"hit": "h", "hit2": "h2", "slow": "s", "slow2": "s2"}, "slow", "slow2")
	ca, addr := startOverStub(t, st)
	for _, k := range []string{"hit", "hit2"} {
		if _, _, err := ca.Get(k); err != nil { // make resident
			t.Fatal(err)
		}
	}
	c := dialRaw(t, addr)
	missSeq := c.get("slow")
	mixedSeq := c.mget("hit", "slow2") // one miss parks the whole batch
	wantFirst := []uint64{c.get("hit"), c.mget("hit", "hit2"), c.get("hit2")}
	for i, want := range wantFirst {
		m := c.recv()
		if m.Seq != want {
			t.Fatalf("response %d answers request %d, want %d (hits must not wait for the parked fills)", i, m.Seq, want)
		}
	}
	close(st.release)
	got := map[uint64]*proto.Msg{}
	for i := 0; i < 2; i++ {
		m := c.recv()
		got[m.Seq] = m
	}
	if m := got[missSeq]; m == nil || m.Type != proto.MsgGetResp || string(m.Value) != "s" {
		t.Errorf("the miss answered %+v", m)
	}
	if m := got[mixedSeq]; m == nil || len(m.Ops) != 2 || string(m.Ops[0].Value) != "h" || string(m.Ops[1].Value) != "s2" {
		t.Errorf("the mixed batch answered %+v", m)
	}
}

// Whichever goroutine finishes a read — the read loop for a hit, a
// carried-on fill for a miss — each key of each request is counted
// exactly once: one get, one of hit / stale miss / cold miss, and one
// read reported to the store, for single GETs and batch members alike.
func TestReadAccountingOncePerKey(t *testing.T) {
	type state int
	const (
		hit state = iota
		stale
		cold
		notFound
	)
	values := map[string]string{}
	stateOf := map[string]state{}
	var keysIn [4][]string
	for st, name := range []string{"hit", "stale", "cold", "absent"} {
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("%s-%d", name, i)
			keysIn[st] = append(keysIn[st], k)
			stateOf[k] = state(st)
			if state(st) != notFound {
				values[k] = "v-" + k
			}
		}
	}
	store := startStubStore(t, values)
	ca, addr := startOverStub(t, store)
	for _, k := range append(append([]string{}, keysIn[hit]...), keysIn[stale]...) {
		if _, _, err := ca.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keysIn[stale] {
		ca.KV().Invalidate(k)
	}
	ca.flushReports() // the set-up reads are not under test
	store.mu.Lock()
	store.reports = map[string]uint32{}
	store.mu.Unlock()
	before := ca.StatsMap()

	// Every request reads each of its keys in the state named: no key
	// appears in two requests, so no state has changed by the time it is
	// read.
	requests := []struct {
		name string
		keys []string // one key: GET; more: MGET
	}{
		{"GET hit", keysIn[hit][:1]},
		{"GET stale", keysIn[stale][:1]},
		{"GET cold", keysIn[cold][:1]},
		{"GET not-found", keysIn[notFound][:1]},
		{"MGET all hits", keysIn[hit][1:3]},
		{"MGET all stale", keysIn[stale][1:3]},
		{"MGET all cold", keysIn[cold][1:3]},
		{"MGET all not-found", keysIn[notFound][1:3]},
		{"MGET mixed", []string{keysIn[hit][3], keysIn[stale][3], keysIn[cold][3], keysIn[notFound][3]}},
	}
	c := dialRaw(t, addr)
	bySeq := map[uint64]int{}
	wantReads := map[string]uint32{}
	var want [4]uint64
	for i, rq := range requests {
		if len(rq.keys) == 1 {
			bySeq[c.get(rq.keys[0])] = i
		} else {
			bySeq[c.mget(rq.keys...)] = i
		}
		for _, k := range rq.keys {
			wantReads[k]++
			want[stateOf[k]]++
		}
	}
	for range requests {
		m := c.recv()
		rq := requests[bySeq[m.Seq]]
		ops := m.Ops
		if m.Type == proto.MsgGetResp {
			ops = []proto.BatchOp{{Kind: proto.BatchUpdate, Value: m.Value}}
			if m.Status == proto.StatusNotFound {
				ops[0].Kind = proto.BatchInvalidate
			}
		}
		if len(ops) != len(rq.keys) {
			t.Fatalf("%s: answered %+v", rq.name, m)
		}
		for j, k := range rq.keys {
			if found := stateOf[k] != notFound; found != (ops[j].Kind == proto.BatchUpdate) || (found && string(ops[j].Value) != values[k]) {
				t.Errorf("%s: key %q answered %+v", rq.name, k, ops[j])
			}
		}
	}

	after := ca.StatsMap()
	delta := func(key string) uint64 { return after[key] - before[key] }
	total := want[hit] + want[stale] + want[cold] + want[notFound]
	for _, chk := range []struct {
		key  string
		want uint64
	}{
		{"gets", total}, {"hits", want[hit]}, {"stale_misses", want[stale]},
		{"cold_misses", want[cold] + want[notFound]},
	} {
		if got := delta(chk.key); got != chk.want {
			t.Errorf("%s moved by %d, want %d", chk.key, got, chk.want)
		}
	}

	ca.flushReports()
	ca.flushReports() // a second flush has nothing left to ship
	got := store.reported()
	if len(got) != len(wantReads) {
		t.Errorf("store was sent reports for %d keys, want %d", len(got), len(wantReads))
	}
	for k, n := range wantReads {
		if got[k] != n {
			t.Errorf("key %q: %d reads reported, want %d", k, got[k], n)
		}
	}
}

// A GET that misses parks on its key's flight, and every flight ends
// exactly once, however the store round trip ends: n GETs for one cold key,
// pipelined over two client connections, share one FILL and each is
// answered once under its own Seq; afterwards nothing more arrives and the
// cache shuts down cleanly.
func TestParkedGetsAnsweredExactlyOnce(t *testing.T) {
	const n = 8
	cases := []struct {
		name    string
		refuse  bool                // the store answers MsgErr
		gone    bool                // the key was deleted upstream; the cache holds a stale copy
		timeout time.Duration       // the store client's request timeout
		settle  func(st *stubStore) // what ends the parked fill
		wantErr string              // what every answer's error mentions; "" = none is a MsgErr
		late    bool                // the fill's answers are released after the fact
	}{
		{name: "found", settle: func(st *stubStore) { close(st.release) }},
		{name: "store answers MsgErr", refuse: true, settle: func(st *stubStore) { close(st.release) }, wantErr: "stub: refused"},
		{name: "store answers not found", gone: true, settle: func(st *stubStore) { close(st.release) }},
		{name: "store dies mid-fill", settle: (*stubStore).kill, wantErr: "client: "},
		{name: "fill times out", timeout: 300 * time.Millisecond, settle: func(*stubStore) {}, wantErr: "timed out", late: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := startStubStore(t, map[string]string{"k": "v"}, "k")
			st.refuse = tc.refuse
			ca, addr := startOverStubTimeout(t, st, tc.timeout)
			if tc.gone {
				ca.KV().Put("k", kv.Entry{Value: []byte("old"), Version: 3, Stale: true})
				st.remove("k")
			}

			conns := []*rawConn{dialRaw(t, addr), dialRaw(t, addr)}
			for i := 0; i < n; i++ {
				conns[i%2].get("k")
			}
			waitFor(t, 5*time.Second, func() bool {
				return st.fills.Load() >= 1 && ca.StatsMap()["fills_deduped"] == n-1
			}, "the GETs to park on one flight")
			tc.settle(st)

			for i := 0; i < n; i++ {
				c := conns[i%2]
				m := c.recv()
				if want := uint64(i/2 + 1); m.Seq != want {
					t.Errorf("conn %d answered Seq %d, want %d", i%2, m.Seq, want)
				}
				switch {
				case tc.wantErr != "":
					if m.Type != proto.MsgErr || !strings.Contains(m.Err, tc.wantErr) {
						t.Errorf("answered %v %q, want a MsgErr mentioning %q", m.Type, m.Err, tc.wantErr)
					}
				case tc.gone:
					if m.Type != proto.MsgGetResp || m.Status != proto.StatusNotFound {
						t.Errorf("answered %v/%v %q, want NOT_FOUND", m.Type, m.Status, m.Err)
					}
				case m.Type != proto.MsgGetResp || m.Status != proto.StatusOK || string(m.Value) != "v" || m.Version != 7:
					t.Errorf("answered %+v, want v at version 7", m)
				}
			}
			if tc.late {
				close(st.release) // the timed-out fills' answers arrive now
				time.Sleep(50 * time.Millisecond)
			}
			for _, c := range conns {
				c.quiesced()
			}
			// One round trip for all of them: a transport failure buys the
			// flight a retry only when a ring refresh moved the key.
			if got := st.fills.Load(); got != 1 {
				t.Errorf("%d FILLs on the wire, want 1", got)
			}
			// Installed only when found; the stale copy of a key deleted
			// upstream is dropped.
			_, resident, fresh := ca.KV().Get("k", time.Now())
			if want := tc.wantErr == "" && !tc.gone; resident != want || fresh != want {
				t.Errorf("afterwards resident=%v fresh=%v, want both %v", resident, fresh, want)
			}
			ca.fillMu.Lock()
			left := len(ca.fills)
			ca.fillMu.Unlock()
			if left != 0 {
				t.Errorf("%d flights left in the table", left)
			}
			closeReturns(t, ca)
		})
	}
}

// Close with GETs still parked: closing the store client fails their
// flight, which releases their connection's read loop, and Close returns.
func TestCloseWithParkedGetsReturns(t *testing.T) {
	st := startStubStore(t, map[string]string{"k": "v"}, "k")
	ca, addr := startOverStub(t, st)
	c := dialRaw(t, addr)
	for i := 0; i < 4; i++ {
		c.get("k")
	}
	waitFor(t, 5*time.Second, func() bool { return ca.StatsMap()["fills_deduped"] == 3 }, "the GETs to park")
	closeReturns(t, ca)
}

// A client that stops reading its answers must not stall the store
// connection's reader, which settles every other connection's fills too.
func TestStalledClientDoesNotStallFills(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	values := map[string]string{}
	for i := 0; i < 600; i++ {
		values[fmt.Sprintf("big-%d", i)] = big
		values[fmt.Sprintf("small-%d", i)] = "v"
	}
	st := startStubStore(t, values)
	_, addr := startOverStub(t, st)

	// The stalled client pipelines far more misses than its queue (64
	// frames), its in-flight bound (256) and the socket buffers hold — and
	// reads none of the answers.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	go func() {
		w := proto.NewWriter(stalled)
		for i := 0; i < 600; i++ {
			if w.WriteMsg(&proto.Msg{Type: proto.MsgGet, Seq: uint64(i + 1), Key: fmt.Sprintf("big-%d", i)}) != nil {
				return
			}
		}
	}()

	good := client.New(addr, client.Options{})
	defer good.Close()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 600; i++ {
		if v, _, err := good.Get(fmt.Sprintf("small-%d", i)); err != nil || string(v) != "v" {
			t.Fatalf("miss %d beside a stalled client: %q, %v", i, v, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d misses filled in 10s beside a stalled client", i)
		}
	}
}

// Single GETs and batch members share flights whichever of them leads: a
// GET joins a flight a batch's MFILL is filling, and a batch member joins
// a flight a GET's FILL is filling.
func TestGetsAndBatchesShareFlights(t *testing.T) {
	st := startStubStore(t, map[string]string{"a": "va", "b": "vb", "c": "vc"}, "a", "b")
	ca, addr := startOverStub(t, st)
	c1, c2 := dialRaw(t, addr), dialRaw(t, addr)

	batchLed := c1.mget("a", "c")
	waitFor(t, 5*time.Second, func() bool { return st.mfills.Load() == 1 }, "the batch's MFILL")
	getJoins := c2.get("a")

	getLed := c2.get("b")
	waitFor(t, 5*time.Second, func() bool { return st.fills.Load() == 1 }, "the GET's FILL")
	batchJoins := c1.mget("b", "c") // c joins the first batch's flight too
	waitFor(t, 5*time.Second, func() bool { return ca.StatsMap()["fills_deduped"] == 3 }, "the joiners")
	close(st.release)

	got := map[uint64]*proto.Msg{}
	for i := 0; i < 2; i++ {
		m := c1.recv()
		got[m.Seq] = m
	}
	if m := got[batchLed]; m == nil || len(m.Ops) != 2 || string(m.Ops[0].Value) != "va" || string(m.Ops[1].Value) != "vc" {
		t.Errorf("the leading batch answered %+v", m)
	}
	if m := got[batchJoins]; m == nil || len(m.Ops) != 2 || string(m.Ops[0].Value) != "vb" || string(m.Ops[1].Value) != "vc" {
		t.Errorf("the joining batch answered %+v", m)
	}
	got = map[uint64]*proto.Msg{}
	for i := 0; i < 2; i++ {
		m := c2.recv()
		got[m.Seq] = m
	}
	if m := got[getJoins]; m == nil || m.Type != proto.MsgGetResp || string(m.Value) != "va" {
		t.Errorf("the GET that joined the batch's flight answered %+v", m)
	}
	if m := got[getLed]; m == nil || m.Type != proto.MsgGetResp || string(m.Value) != "vb" {
		t.Errorf("the GET that led answered %+v", m)
	}
	c1.quiesced()
	c2.quiesced()
	if f, mf := st.fills.Load(), st.mfills.Load(); f != 1 || mf != 1 {
		t.Errorf("store served %d FILLs and %d MFILLs, want 1 and 1", f, mf)
	}
}

// A traced GET that misses still carries the store's hop inside the
// cache's, and the slow-request log still fires for it, now that the
// answer is built on the store connection's reader.
func TestParkedGetTraceAndSlowLog(t *testing.T) {
	st := startStubStore(t, map[string]string{"k": "v"}, "k")
	var logged lockedBuf
	ca, err := New(Config{StoreAddr: st.ln.Addr().String(), T: time.Hour, Name: "rtc-cache",
		SlowTraceThreshold: time.Millisecond, Logger: log.New(&logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, serveCache(t, ca))
	c.send(&proto.Msg{Type: proto.MsgGet, Key: "k", Trace: &proto.Trace{ID: 42}})
	waitFor(t, 5*time.Second, func() bool { return st.fills.Load() == 1 }, "the fill")
	time.Sleep(5 * time.Millisecond) // past the slow threshold
	if n := ca.fillRTT.Count(); n != 0 {
		t.Errorf("%d fill RTT samples before the fill landed", n)
	}
	close(st.release)
	m := c.recv()
	if m.Trace == nil || m.Trace.ID != 42 || len(m.Trace.Spans) != 1 || m.Trace.Spans[0].Node != "cache:rtc-cache" {
		t.Fatalf("trace = %+v, want the cache's span (the stub store adds none)", m.Trace)
	}
	if !strings.Contains(logged.String(), "cache:rtc-cache") {
		t.Errorf("no slow-request log line for the parked GET: %q", logged.String())
	}
	if n := ca.fillRTT.Count(); n != 1 {
		t.Errorf("%d fill RTT samples for one led fill", n)
	}
}

// lockedBuf is a log sink written from the goroutine that settles a fill.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startStubCoord answers RING_GET with whatever ring the test last set.
func startStubCoord(t *testing.T) (addr string, publish func(epoch uint64, nodes ...string)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var ring proto.Msg
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				w, r := proto.NewWriter(conn), proto.NewReader(conn)
				for {
					m, err := r.ReadMsg()
					if err != nil {
						return
					}
					mu.Lock()
					resp := ring
					mu.Unlock()
					resp.Seq = m.Seq
					if w.WriteMsg(&resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func(epoch uint64, nodes ...string) {
		mu.Lock()
		defer mu.Unlock()
		ring = proto.Msg{Type: proto.MsgRingResp, Epoch: epoch, Nodes: nodes,
			Version: 16, Replicas: 1, Stamp: time.Now().UnixNano()}
	}
}

// In cluster mode, the owning store dying with GETs parked on a fill sends
// that flight — alone — through the blocking failover path: the ring is
// refreshed from the coordinator and every parked GET is answered from the
// promoted owner.
func TestParkedGetsFailOverToPromotedOwner(t *testing.T) {
	dying := startStubStore(t, map[string]string{"k": "old"}, "k")
	promoted := startStubStore(t, map[string]string{"k": "v"})
	coord, publish := startStubCoord(t)
	publish(1, dying.ln.Addr().String())
	// The watcher never polls: only the failed fill's refresh can learn
	// of epoch 2.
	ca, err := New(Config{ClusterAddr: coord, T: time.Hour, WatchInterval: time.Hour,
		Name: "rtc-cache", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, serveCache(t, ca))

	const n = 4
	for i := 0; i < n; i++ {
		c.get("k")
	}
	waitFor(t, 5*time.Second, func() bool {
		return dying.fills.Load() == 1 && ca.StatsMap()["fills_deduped"] == n-1
	}, "the GETs to park on the doomed owner")
	publish(2, promoted.ln.Addr().String())
	dying.kill()

	for i := 0; i < n; i++ {
		if m := c.recv(); m.Type != proto.MsgGetResp || string(m.Value) != "v" {
			t.Errorf("Seq %d answered %v %q %q, want the promoted owner's value", m.Seq, m.Type, m.Value, m.Err)
		}
	}
	c.quiesced()
	sm := ca.StatsMap()
	if sm["failovers"] != 1 || sm["ring_epoch"] != 2 {
		t.Errorf("failovers = %d, ring epoch = %d, want 1 and 2", sm["failovers"], sm["ring_epoch"])
	}
	if got := promoted.fills.Load(); got != 1 {
		t.Errorf("promoted owner served %d FILLs, want 1", got)
	}
	// The swap moved the key while its fill was in flight: installed, but
	// not as fresh.
	if _, resident, fresh := ca.KV().Get("k", time.Now()); !resident || fresh {
		t.Errorf("afterwards resident=%v fresh=%v, want a stale copy", resident, fresh)
	}
}

// A PUT is relayed from the read loop and answered from the store
// connection's reader like a parked GET: exactly once under its own Seq
// however the store round trip ends, the store asked once, and a stale read
// pipelined behind it is not held up.
func TestRelayedPutsAnsweredExactlyOnce(t *testing.T) {
	const n = 8
	cases := []struct {
		name    string
		refuse  bool
		timeout time.Duration
		settle  func(st *stubStore)
		wantErr string
		late    bool
	}{
		{name: "acknowledged", settle: func(st *stubStore) { close(st.release) }},
		{name: "store answers MsgErr", refuse: true, settle: func(st *stubStore) { close(st.release) }, wantErr: "stub: refused"},
		{name: "store dies mid-PUT", settle: (*stubStore).kill, wantErr: "client: "},
		{name: "PUT times out", timeout: 300 * time.Millisecond, settle: func(*stubStore) {}, wantErr: "timed out", late: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := startStubStore(t, map[string]string{"hit": "v"}, "k")
			st.refuse = tc.refuse
			ca, addr := startOverStubTimeout(t, st, tc.timeout)
			ca.KV().Put("hit", kv.Entry{Value: []byte("v"), Version: 7})
			c := dialRaw(t, addr)
			for i := 0; i < n; i++ {
				c.send(&proto.Msg{Type: proto.MsgPut, Key: "k", Value: []byte(fmt.Sprintf("v%d", i))})
			}
			waitFor(t, 5*time.Second, func() bool { return st.puts.Load() == n }, "the PUTs to reach the store")
			hit := c.get("hit")
			if m := c.recv(); m.Seq != hit || string(m.Value) != "v" {
				t.Fatalf("the hit behind the parked PUTs answered %+v", m)
			}
			tc.settle(st)
			seen := make(map[uint64]bool)
			for i := 0; i < n; i++ {
				m := c.recv()
				if m.Seq < 1 || m.Seq > n || seen[m.Seq] {
					t.Errorf("answer %d is for Seq %d (again: %v)", i, m.Seq, seen[m.Seq])
				}
				seen[m.Seq] = true
				switch {
				case tc.wantErr != "":
					if m.Type != proto.MsgErr || !strings.Contains(m.Err, tc.wantErr) {
						t.Errorf("answered %v %q, want a MsgErr mentioning %q", m.Type, m.Err, tc.wantErr)
					}
				case m.Type != proto.MsgPutResp || m.Status != proto.StatusOK || m.Version != 7:
					t.Errorf("answered %+v, want version 7", m)
				}
			}
			if tc.late {
				close(st.release)
				time.Sleep(50 * time.Millisecond)
			}
			c.quiesced()
			if got := st.puts.Load(); got != n {
				t.Errorf("%d PUTs on the wire, want %d", got, n)
			}
			if got := ca.StatsMap()["puts"]; got != n {
				t.Errorf("puts = %d, want %d", got, n)
			}
			closeReturns(t, ca)
		})
	}
}

// In cluster mode a PUT whose owner dies under it is re-sent, from the
// relay's own copy of the value, to the owner a ring refresh promotes.
func TestRelayedPutFailsOverToPromotedOwner(t *testing.T) {
	dying := startStubStore(t, map[string]string{}, "k")
	promoted := startStubStore(t, map[string]string{})
	coord, publish := startStubCoord(t)
	publish(1, dying.ln.Addr().String())
	ca, err := New(Config{ClusterAddr: coord, T: time.Hour, WatchInterval: time.Hour,
		Name: "rtc-cache", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, serveCache(t, ca))
	seq := c.send(&proto.Msg{Type: proto.MsgPut, Key: "k", Value: []byte("v"), Trace: &proto.Trace{ID: 8}})
	waitFor(t, 5*time.Second, func() bool { return dying.puts.Load() == 1 }, "the PUT to reach the doomed owner")
	publish(2, promoted.ln.Addr().String())
	dying.kill()
	m := c.recv()
	if m.Seq != seq || m.Type != proto.MsgPutResp || m.Version != 7 {
		t.Fatalf("answered %+v %q, want the promoted owner's acknowledgement", m, m.Err)
	}
	if m.Trace == nil || len(m.Trace.Spans) != 1 || m.Trace.Spans[0].Node != "cache:rtc-cache" {
		t.Errorf("trace = %+v, want the cache's span", m.Trace)
	}
	c.quiesced()
	if sm := ca.StatsMap(); sm["failovers"] != 1 || sm["ring_epoch"] != 2 {
		t.Errorf("failovers = %d, ring epoch = %d, want 1 and 2", sm["failovers"], sm["ring_epoch"])
	}
	if got := promoted.puts.Load(); got != 1 {
		t.Errorf("the promoted owner was sent %d PUTs, want 1", got)
	}
}

// An MPUT carrying anything but updates is refused on the read loop, before
// anything is counted or sent to a store.
func TestMPutWithNonUpdateOpRefusedUncounted(t *testing.T) {
	up := func(k string) proto.BatchOp {
		return proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: []byte("v")}
	}
	bad := proto.BatchOp{Kind: proto.BatchInvalidate, Key: "bad"}
	cases := []struct {
		name string
		ops  []proto.BatchOp
		at   int
	}{
		{"the only op", []proto.BatchOp{bad}, 0},
		{"the first op", []proto.BatchOp{bad, up("a"), up("b")}, 0},
		{"the last op", []proto.BatchOp{up("a"), up("b"), bad}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := startStubStore(t, map[string]string{})
			ca, addr := startOverStub(t, st)
			c := dialRaw(t, addr)
			seq := c.send(&proto.Msg{Type: proto.MsgMPut, Ops: tc.ops})
			want := fmt.Sprintf("cache: MPUT op %d has kind", tc.at)
			if m := c.recv(); m.Type != proto.MsgErr || m.Seq != seq || !strings.Contains(m.Err, want) {
				t.Fatalf("answered %v Seq %d %q, want a MsgErr mentioning %q", m.Type, m.Seq, m.Err, want)
			}
			c.quiesced()
			sm := ca.StatsMap()
			if sm["puts"] != 0 || sm["mput_ops"] != 0 || sm["batch_size_samples"] != 0 {
				t.Errorf("puts = %d, mput_ops = %d, batch_size_samples = %d; want none of any",
					sm["puts"], sm["mput_ops"], sm["batch_size_samples"])
			}
			if got := st.puts.Load(); got != 0 {
				t.Errorf("the store was sent %d PUTs, want none", got)
			}
		})
	}
}
