package cache

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"freshcache/internal/proto"
)

// stubStore is an authority the test scripts: it answers the
// subscription handshake and then stays silent, serves fills from a
// fixed table (parking any fill that touches a key in slow until
// release is closed), and records every read report it is sent.
type stubStore struct {
	ln      net.Listener
	values  map[string]string // immutable once serving
	slow    map[string]bool
	release chan struct{}

	mu      sync.Mutex
	reports map[string]uint32
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
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
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
			resp := &proto.Msg{Type: proto.MsgGetResp, Seq: m.Seq, Status: proto.StatusNotFound}
			if v, ok := s.values[m.Key]; ok {
				resp.Status, resp.Version, resp.Value = proto.StatusOK, 7, []byte(v)
			}
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
				if v, ok := s.values[k]; ok {
					op = proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: []byte(v), Version: 7}
				}
				resp.Ops = append(resp.Ops, op)
				park = park || s.slow[k]
			}
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
	ca, err := New(Config{StoreAddr: st.ln.Addr().String(), T: time.Hour,
		Name: "rtc-cache", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	t.Cleanup(func() { ca.Close() })
	return ca, cln.Addr().String()
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
