package store

import (
	"errors"
	"net"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/proto"
)

// startStore runs a store server on an ephemeral port. The returned stop
// function must be deferred.
func startStore(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.T == 0 {
		cfg.T = time.Hour // tests drive flushes explicitly via TestFlush
	}
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // returns on Close
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func TestPutGetRoundTrip(t *testing.T) {
	_, addr := startStore(t, Config{})
	c := client.New(addr, client.Options{})
	defer c.Close()

	v1, err := c.Put("user:1", []byte("alice"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Put("user:1", []byte("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("versions not monotone: %d then %d", v1, v2)
	}
	val, ver, err := c.Get("user:1")
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "bob" || ver != v2 {
		t.Errorf("Get = %q v%d", val, ver)
	}
	if _, _, err := c.Get("missing"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
}

func TestFillVsGetObservation(t *testing.T) {
	s, addr := startStore(t, Config{})
	c := client.New(addr, client.Options{})
	defer c.Close()

	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Fill("k"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["gets"] != 5 || st["fills"] != 1 || st["puts"] != 1 {
		t.Errorf("stats: gets=%d fills=%d puts=%d", st["gets"], st["fills"], st["puts"])
	}
	_ = s
}

func TestSubscribeReceivesBatches(t *testing.T) {
	// Costs forcing updates (read-heavy prior): engine default decides
	// update for fresh keys.
	s, addr := startStore(t, Config{
		Engine: core.Config{Costs: costmodel.Fixed(2, 0.25, 1)},
	})
	c := client.New(addr, client.Options{})
	defer c.Close()

	// Raw subscription connection.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := proto.NewWriter(conn)
	r := proto.NewReader(conn)
	if err := w.WriteMsg(&proto.Msg{Type: proto.MsgSubscribe, Seq: 1, Key: "test-cache"}); err != nil {
		t.Fatal(err)
	}
	sub, err := r.ReadMsg()
	if err != nil || sub.Type != proto.MsgSubResp {
		t.Fatalf("subscribe: %v %v", sub, err)
	}

	if _, err := c.Put("hot", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	s.TestFlush()

	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	batch, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if batch.Type != proto.MsgBatch || batch.Epoch != sub.Epoch+1 {
		t.Fatalf("batch: type=%v epoch=%d (sub epoch %d)", batch.Type, batch.Epoch, sub.Epoch)
	}
	if len(batch.Ops) != 1 || batch.Ops[0].Key != "hot" {
		t.Fatalf("ops: %+v", batch.Ops)
	}
	if batch.Ops[0].Kind != proto.BatchUpdate || string(batch.Ops[0].Value) != "v1" {
		t.Errorf("op: %+v", batch.Ops[0])
	}

	// An empty flush still heartbeats with the next epoch.
	s.TestFlush()
	hb, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if hb.Epoch != batch.Epoch+1 || len(hb.Ops) != 0 {
		t.Errorf("heartbeat: epoch=%d ops=%d", hb.Epoch, len(hb.Ops))
	}
}

func TestInvalidateDecisionAndDedup(t *testing.T) {
	// cu huge: every decision is an invalidate.
	s, addr := startStore(t, Config{
		Engine: core.Config{Costs: costmodel.Fixed(2, 0.25, 100)},
	})
	c := client.New(addr, client.Options{})
	defer c.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	if err := w.WriteMsg(&proto.Msg{Type: proto.MsgSubscribe, Seq: 1, Key: "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err != nil {
		t.Fatal(err)
	}

	mustBatch := func(wantOps int) *proto.Msg {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		m, err := r.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != proto.MsgBatch || len(m.Ops) != wantOps {
			t.Fatalf("batch: %+v (want %d ops)", m, wantOps)
		}
		return m
	}

	c.Put("k", []byte("v1")) //nolint:errcheck
	s.TestFlush()
	b := mustBatch(1)
	if b.Ops[0].Kind != proto.BatchInvalidate {
		t.Fatalf("want invalidate, got %+v", b.Ops[0])
	}
	// Second write without a fill: deduplicated, empty batch.
	c.Put("k", []byte("v2")) //nolint:errcheck
	s.TestFlush()
	mustBatch(0)
	// After a fill the store must re-invalidate on the next write.
	if _, _, err := c.Fill("k"); err != nil {
		t.Fatal(err)
	}
	c.Put("k", []byte("v3")) //nolint:errcheck
	s.TestFlush()
	b = mustBatch(1)
	if b.Ops[0].Kind != proto.BatchInvalidate {
		t.Fatalf("want invalidate after fill, got %+v", b.Ops[0])
	}
}

func TestReadReportFeedsEngine(t *testing.T) {
	s, addr := startStore(t, Config{})
	c := client.New(addr, client.Options{})
	defer c.Close()

	if err := c.ReadReport([]proto.ReadReport{{Key: "a", Count: 10}, {Key: "b", Count: 3}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["read_reports"] != 1 {
		t.Errorf("read_reports = %d", st["read_reports"])
	}
	_ = s
}

func TestReadReportCountCapped(t *testing.T) {
	s, addr := startStore(t, Config{MaxReportCount: 5})
	c := client.New(addr, client.Options{})
	defer c.Close()
	// A hostile count must be clamped, not loop 4 billion times.
	done := make(chan error, 1)
	go func() {
		done <- c.ReadReport([]proto.ReadReport{{Key: "x", Count: 1 << 30}})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read report with huge count hung")
	}
	_ = s
}

func TestPingAndUnknownMessage(t *testing.T) {
	_, addr := startStore(t, Config{})
	c := client.New(addr, client.Options{})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// A raw unexpected message type earns MsgErr, not a hang.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	if err := w.WriteMsg(&proto.Msg{Type: proto.MsgGetResp, Seq: 9, Status: proto.StatusOK}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	resp, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != proto.MsgErr || resp.Seq != 9 {
		t.Errorf("resp: %+v", resp)
	}
}

func TestMalformedFrameDisconnects(t *testing.T) {
	s, addr := startStore(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage header claiming a huge frame.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected disconnect after malformed frame")
	}
	_ = s
}

func TestSlowSubscriberDropped(t *testing.T) {
	s, addr := startStore(t, Config{
		SubscriberQueue: 1,
		Engine:          core.Config{Costs: costmodel.Fixed(2, 0.25, 1)},
	})
	c := client.New(addr, client.Options{})
	defer c.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := proto.NewWriter(conn)
	if err := w.WriteMsg(&proto.Msg{Type: proto.MsgSubscribe, Seq: 1, Key: "slow"}); err != nil {
		t.Fatal(err)
	}
	// Never read from the connection and force large update frames, so
	// the kernel socket buffer fills, the writer goroutine blocks, and
	// the push queue overflows — at which point the store must cut the
	// subscriber loose rather than buffer without bound.
	big := make([]byte, 1<<20)
	for i := 0; i < 200; i++ {
		c.Put("k", big) //nolint:errcheck
		c.Get("k")      //nolint:errcheck // keep the key read-hot: decisions stay "update"
		s.TestFlush()
		if s.c.SubscribersDropped.Value() > 0 {
			break
		}
	}
	if s.c.SubscribersDropped.Value() == 0 {
		t.Error("slow subscriber never dropped")
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	s := New(Config{T: time.Hour})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	time.Sleep(20 * time.Millisecond)
	if s.Addr() == nil {
		t.Error("Addr nil while serving")
	}
	if err := s.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// TestResubscribeReplacesOldSubscriber guards against the
// double-subscribe leak: a second MsgSubscribe on one connection must
// replace the first registration, not orphan it in the subscriber set
// (where it would double-count every push into the shared queue and
// survive disconnect).
func TestResubscribeReplacesOldSubscriber(t *testing.T) {
	s, addr := startStore(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	for i := uint64(1); i <= 3; i++ {
		if err := w.WriteMsg(&proto.Msg{Type: proto.MsgSubscribe, Seq: i, Key: "resub"}); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadMsg()
		if err != nil || resp.Type != proto.MsgSubResp {
			t.Fatalf("subscribe %d: %v %v", i, resp, err)
		}
	}
	s.mu.Lock()
	n := len(s.subs)
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("subscriber set holds %d entries after re-subscribes, want 1", n)
	}
	// One flush must push exactly one heartbeat, not one per phantom.
	s.TestFlush()
	if got := s.c.BatchesSent.Value(); got != 1 {
		t.Errorf("one flush sent %d batches to one connection, want 1", got)
	}
}

// TestReadReportBulkIngestion checks the O(1) read-report path: a
// report with a large per-key count must register the full count with
// the policy engine (and do so without a per-read loop — the count here
// would take noticeable time at one tracker op per read).
func TestReadReportBulkIngestion(t *testing.T) {
	s, addr := startStore(t, Config{})
	c := client.New(addr, client.Options{})
	defer c.Close()

	if err := c.ReadReport([]proto.ReadReport{{Key: "hot", Count: 60000}}); err != nil {
		t.Fatal(err)
	}
	// 60000 reads against one write: the decision rule must see the key
	// as read-heavy and choose update under default costs.
	if _, err := c.Put("hot", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A write to a read key is due at once: the flusher may get to it before
	// this Flush does.
	s.Engine().Flush()
	if st := s.Engine().Stats(); st.UpdatesSent != 1 || st.InvalidatesSent != 0 {
		t.Fatalf("decisions after bulk read report: %+v", st)
	}
	// Counts above MaxReportCount are clamped, not rejected.
	if err := c.ReadReport([]proto.ReadReport{{Key: "hot", Count: 1 << 30}}); err != nil {
		t.Fatal(err)
	}
}
