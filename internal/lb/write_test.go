package lb

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// startLBOverStore runs a balancer whose one store is the fake (and whose
// one cache is too; no reads are sent). A positive upstreamTimeout replaces
// the store clients' 10s request timeout, which Config does not expose.
func startLBOverStore(t *testing.T, upstreamTimeout time.Duration, st *fakeCache) (*Server, string) {
	t.Helper()
	addr := st.ln.Addr().String()
	b, err := New(Config{StoreAddr: addr, CacheAddrs: []string{addr},
		DrainTimeout: 10 * time.Second, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if upstreamTimeout > 0 {
		b.stores.Close()
		if b.stores, err = client.NewSharded([]string{addr}, 0, client.Options{RequestTimeout: upstreamTimeout}); err != nil {
			t.Fatal(err)
		}
	}
	return b, serveLB(t, b)
}

func serveLB(t *testing.T, b *Server) string {
	t.Helper()
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(bln) //nolint:errcheck
	t.Cleanup(func() { b.Close() })
	return bln.Addr().String()
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

// However a relayed PUT's store round trip ends — acknowledged, refused,
// cut off or timed out — the client gets exactly one answer to it, under
// its own Seq, the store is asked once, and the balancer still closes.
func TestPutRelayAnsweredExactlyOnce(t *testing.T) {
	const n = 8 // PUTs pipelined on the one client connection
	cases := []struct {
		name    string
		refuse  bool
		timeout time.Duration
		settle  func(st *fakeCache)
		wantErr string // what every answer's error mentions; "" = all acknowledged
		late    bool   // the store's answers are released after the fact
	}{
		{name: "acknowledged", settle: func(st *fakeCache) { close(st.release) }},
		{name: "store answers MsgErr", refuse: true, settle: func(st *fakeCache) { close(st.release) }, wantErr: "fake: refused"},
		{name: "store dies mid-PUT", settle: (*fakeCache).kill, wantErr: "client: c"}, // "connection broken" or "closed"
		{name: "PUT times out", timeout: 300 * time.Millisecond, settle: func(*fakeCache) {}, wantErr: "timed out", late: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := startFakeCache(t)
			st.refuse = tc.refuse
			b, lbAddr := startLBOverStore(t, tc.timeout, st)
			rc := dialRaw(t, lbAddr)
			for i := 1; i <= n; i++ {
				rc.send(&proto.Msg{Type: proto.MsgPut, Seq: uint64(i), Key: fmt.Sprintf("k-%d", i), Value: []byte("v")})
			}
			waitUntil(t, "the PUTs to reach the store", func() bool { return st.parked.Load() == n })
			tc.settle(st)

			answers := make(map[uint64]int)
			for i := 0; i < n; i++ {
				m := rc.read(5 * time.Second)
				if m == nil {
					t.Fatalf("only %d of %d PUTs answered", i, n)
				}
				answers[m.Seq]++
				switch {
				case tc.wantErr != "":
					if m.Type != proto.MsgErr || !strings.Contains(m.Err, tc.wantErr) {
						t.Errorf("Seq %d answered %v %q, want a MsgErr mentioning %q", m.Seq, m.Type, m.Err, tc.wantErr)
					}
				case m.Type != proto.MsgPutResp || m.Status != proto.StatusOK || m.Version != 7:
					t.Errorf("Seq %d answered %+v, want version 7", m.Seq, m)
				}
			}
			for seq := uint64(1); seq <= n; seq++ {
				if answers[seq] != 1 {
					t.Errorf("Seq %d answered %d times", seq, answers[seq])
				}
			}
			if tc.late {
				close(st.release) // the timed-out PUTs' answers arrive now
				time.Sleep(50 * time.Millisecond)
			}
			rc.quiesced()
			// A PUT whose owner did not change is not sent twice, whatever
			// became of it.
			if got := st.parked.Load(); got != n {
				t.Errorf("the store was sent %d PUTs, want %d", got, n)
			}
			sm := b.StatsMap()
			wantErrs := uint64(0)
			if tc.wantErr != "" {
				wantErrs = n
			}
			if sm["errors"] != wantErrs || sm["writes"] != n || sm["failovers"] != 0 {
				t.Errorf("errors = %d, writes = %d, failovers = %d; want %d, %d and 0", sm["errors"], sm["writes"], sm["failovers"], wantErrs, n)
			}
			if got := b.writeRTT.Count(); got != n {
				t.Errorf("%d write RTT samples for %d PUTs", got, n)
			}
			closeReturns(t, b)
		})
	}
}

// In cluster mode, the owning store dying with PUTs in flight sends each of
// them — and nothing else — through the blocking failover path: the ring is
// refreshed from the coordinator and the PUT, re-sent from the relay's own
// copy of the value, is acknowledged by the promoted owner.
func TestPutRelaysFailOverToPromotedOwner(t *testing.T) {
	dying, promoted := startFakeCache(t), startFakeCache(t)
	close(promoted.release)
	coord, publish := startStubCoord(t)
	publish(1, dying.ln.Addr().String())
	// The watcher never polls: only a failed PUT's refresh can learn of
	// epoch 2.
	b, err := New(Config{ClusterAddr: coord, CacheAddrs: []string{dying.ln.Addr().String()},
		WatchInterval: time.Hour, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, serveLB(t, b))

	const n = 4
	for i := 1; i <= n; i++ {
		rc.send(&proto.Msg{Type: proto.MsgPut, Seq: uint64(i), Key: fmt.Sprintf("k-%d", i),
			Value: []byte(fmt.Sprintf("v-%d", i)), Trace: &proto.Trace{ID: 5}})
	}
	waitUntil(t, "the PUTs to reach the doomed owner", func() bool { return dying.parked.Load() == n })
	publish(2, promoted.ln.Addr().String())
	dying.kill()

	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		m := rc.read(5 * time.Second)
		if m == nil || m.Type != proto.MsgPutResp || m.Version != 7 || seen[m.Seq] {
			t.Fatalf("answer %d: %+v, want each PUT acknowledged once by the promoted owner", i, m)
		}
		seen[m.Seq] = true
		if m.Trace == nil || len(m.Trace.Spans) != 1 || m.Trace.Spans[0].Node != "lb" {
			t.Errorf("Seq %d: trace %+v, want the balancer's span (the fake store adds none)", m.Seq, m.Trace)
		}
	}
	rc.quiesced()
	sm := b.StatsMap()
	if sm["failovers"] != n || sm["ring_epoch"] != 2 || sm["errors"] != 0 {
		t.Errorf("failovers = %d, ring epoch = %d, errors = %d; want %d, 2 and 0", sm["failovers"], sm["ring_epoch"], sm["errors"], n)
	}
	if got := promoted.parked.Load(); got != n {
		t.Errorf("the promoted owner was sent %d PUTs, want %d", got, n)
	}
}

// Close waits for relayed PUTs still in flight: each is answered and
// flushed before the upstream clients are torn down.
func TestCloseDrainsRelayedPuts(t *testing.T) {
	st := startFakeCache(t)
	b, lbAddr := startLBOverStore(t, 0, st)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			v, err := c.Put(fmt.Sprintf("k-%d", i), []byte("v"))
			if err == nil && v != 7 {
				err = fmt.Errorf("Put acknowledged version %d", v)
			}
			errs <- err
		}(i)
	}
	waitUntil(t, "the PUTs to park upstream", func() bool { return st.parked.Load() == n })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with relayed PUTs unanswered")
	case <-time.After(100 * time.Millisecond):
	}
	close(st.release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("PUT in flight across Close: %v", err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight PUTs were answered")
	}
}

// TestStalledClientDoesNotStallOthers for writes: the completion that
// answers a PUT runs on the store connection's reader, which every other
// client's PUTs come back through, so it may never wait on a client's
// queue — not even one already full of answers nobody reads.
func TestStalledClientDoesNotStallWrites(t *testing.T) {
	b, _, _ := startClusterLB(t, 1)
	lbAddr := b.Addr().String()
	good := client.New(lbAddr, client.Options{})
	defer good.Close()
	if _, err := good.Put("big", make([]byte, 128<<10)); err != nil {
		t.Fatal(err)
	}

	// The stalled client reads nothing. First it asks for the big value
	// often enough that the answers (25 MB) fill its queue (64 frames, 8 MB)
	// and the socket buffers (its receive buffer is held small; the
	// balancer's send buffer grows to a few MB), with room left in its
	// in-flight bound (256); then it pipelines PUTs, whose acknowledgements
	// find that queue full.
	stalled, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := stalled.(*net.TCPConn).SetReadBuffer(32 << 10); err != nil {
		t.Fatal(err)
	}
	w := proto.NewWriter(stalled)
	const gets, puts = 200, 50
	for i := 0; i < gets; i++ {
		if err := w.WriteMsg(&proto.Msg{Type: proto.MsgGet, Seq: uint64(i + 1), Key: "big"}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the stalled client's GETs to have been answered", func() bool {
		return b.readRTT.Count() >= gets
	})
	for i := 0; i < puts; i++ {
		m := &proto.Msg{Type: proto.MsgPut, Seq: uint64(gets + i + 1), Key: fmt.Sprintf("stalled-%d", i), Value: []byte("v")}
		if err := w.WriteMsg(m); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 500; i++ {
		if _, err := good.Put(fmt.Sprintf("small-%d", i), []byte("v")); err != nil {
			t.Fatalf("Put %d beside a stalled client: %v", i, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d PUTs in 10s beside a stalled client", i)
		}
	}
}

// An MPUT carrying anything but updates is refused on the read loop, before
// anything is counted as a write, copied or sent to a store — and it is
// counted as an error.
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
			st := startFakeCache(t)
			close(st.release)
			b, lbAddr := startLBOverStore(t, 0, st)
			rc := dialRaw(t, lbAddr)
			rc.send(&proto.Msg{Type: proto.MsgMPut, Seq: 3, Ops: tc.ops})
			want := fmt.Sprintf("lb: MPUT op %d has kind", tc.at)
			if m := rc.read(5 * time.Second); m == nil || m.Type != proto.MsgErr || m.Seq != 3 || !strings.Contains(m.Err, want) {
				t.Fatalf("answered %+v, want a MsgErr mentioning %q", m, want)
			}
			rc.quiesced()
			sm := b.StatsMap()
			if sm["writes"] != 0 || sm["mput_ops"] != 0 || sm["batch_size_samples"] != 0 || sm["errors"] != 1 {
				t.Errorf("writes = %d, mput_ops = %d, batch_size_samples = %d, errors = %d; want 0, 0, 0 and 1",
					sm["writes"], sm["mput_ops"], sm["batch_size_samples"], sm["errors"])
			}
			if got := st.parked.Load(); got != 0 {
				t.Errorf("the store was sent %d requests, want none", got)
			}
		})
	}
}
