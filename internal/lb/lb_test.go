package lb

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

	"freshcache/internal/cache"
	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/proto"
	"freshcache/internal/store"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// startCluster wires store + n caches + lb on ephemeral ports.
func startCluster(t *testing.T, nCaches int) (lbAddr string, caches []*cache.Server, st *store.Server) {
	t.Helper()
	b, caches, st := startClusterLB(t, nCaches)
	return b.Addr().String(), caches, st
}

// startClusterLB is startCluster for a test that looks inside the balancer.
func startClusterLB(t *testing.T, nCaches int) (b *Server, caches []*cache.Server, st *store.Server) {
	t.Helper()
	const T = 40 * time.Millisecond
	st = store.New(store.Config{T: T,
		Engine: core.Config{Costs: costmodel.Fixed(2, 0.25, 1)}, Logger: quietLogger()})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(sln) //nolint:errcheck
	t.Cleanup(func() { st.Close() })

	var cacheAddrs []string
	for i := 0; i < nCaches; i++ {
		ca, err := cache.New(cache.Config{
			StoreAddr: sln.Addr().String(), T: T,
			Name: fmt.Sprintf("cache-%d", i), Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ca.Serve(cln) //nolint:errcheck
		t.Cleanup(func() { ca.Close() })
		caches = append(caches, ca)
		cacheAddrs = append(cacheAddrs, cln.Addr().String())
	}

	b, err = New(Config{StoreAddr: sln.Addr().String(), CacheAddrs: cacheAddrs, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(bln) //nolint:errcheck
	t.Cleanup(func() { b.Close() })
	waitUntil(t, "the balancer to listen", func() bool { return b.Addr() != nil })
	return b, caches, st
}

func TestReadWriteThroughLB(t *testing.T) {
	lbAddr, _, _ := startCluster(t, 2)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	if _, err := c.Put("user:7", []byte("zoe")); err != nil {
		t.Fatal(err)
	}
	val, _, err := c.Get("user:7")
	if err != nil || string(val) != "zoe" {
		t.Fatalf("Get = %q %v", val, err)
	}
	if _, _, err := c.Get("ghost"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("ghost: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["reads"] != 2 || st["writes"] != 1 || st["caches"] != 2 {
		t.Errorf("lb stats: %v", st)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyAffinityRouting(t *testing.T) {
	lbAddr, caches, _ := startCluster(t, 2)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	// Read the same key many times: exactly one cache should see it.
	c.Put("sticky", []byte("v")) //nolint:errcheck
	for i := 0; i < 20; i++ {
		if _, _, err := c.Get("sticky"); err != nil {
			t.Fatal(err)
		}
	}
	var served []uint64
	for _, ca := range caches {
		served = append(served, ca.StatsMap()["gets"])
	}
	if (served[0] == 0) == (served[1] == 0) {
		t.Errorf("key affinity broken: cache gets = %v", served)
	}
	total := served[0] + served[1]
	if total != 20 {
		t.Errorf("reads served = %d, want 20", total)
	}
}

func TestManyKeysSpreadAcrossCaches(t *testing.T) {
	lbAddr, caches, _ := startCluster(t, 2)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Put(key, []byte("v")) //nolint:errcheck
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	a, b := caches[0].StatsMap()["gets"], caches[1].StatsMap()["gets"]
	if a == 0 || b == 0 {
		t.Errorf("load not spread: %d vs %d", a, b)
	}
}

// TestPushPropagatesToAllCaches covers the §5 replicated-cache concern:
// one store must deliver each freshness batch to every subscribed cache,
// so a key resident in several caches goes fresh everywhere within T.
func TestPushPropagatesToAllCaches(t *testing.T) {
	_, caches, st := startCluster(t, 3)
	// Make the key resident in EVERY cache by reading it directly from
	// each node (bypassing the LB's key affinity).
	var clients []*client.Client
	for _, ca := range caches {
		for ca.Addr() == nil { // Serve registers the listener asynchronously
			time.Sleep(time.Millisecond)
		}
		c := client.New(ca.Addr().String(), client.Options{})
		defer c.Close()
		clients = append(clients, c)
	}
	if _, err := clients[0].Put("shared", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if v, _, err := c.Get("shared"); err != nil || string(v) != "v1" {
			t.Fatalf("cache %d initial read: %q %v", i, v, err)
		}
	}
	// One write must reach all three caches by push.
	if _, err := clients[0].Put("shared", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, ca := range caches {
		for {
			sm := ca.StatsMap()
			if sm["updates_applied"] > 0 || sm["invalidates_applied"] > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cache %d never received the push", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i, c := range clients {
		if v, _, err := c.Get("shared"); err != nil || string(v) != "v2" {
			t.Fatalf("cache %d after push: %q %v", i, v, err)
		}
	}
	_ = st
}

func TestUnexpectedMessageAnswered(t *testing.T) {
	lbAddr, _, _ := startCluster(t, 1)
	conn, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	if err := w.WriteMsg(&proto.Msg{Type: proto.MsgSubscribe, Seq: 5, Key: "x"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	resp, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != proto.MsgErr || resp.Seq != 5 {
		t.Errorf("resp: %+v", resp)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{CacheAddrs: []string{"x"}}); err == nil {
		t.Error("missing store accepted")
	}
	if _, err := New(Config{StoreAddr: "x"}); err == nil {
		t.Error("missing caches accepted")
	}
}

// fakeCache is an upstream the test controls — a cache, or a store: it
// answers every GET with the key echoed back as the value, every MGET
// likewise, keys that start with "ghost" excepted (not found), and every
// PUT with version 7 (a MsgErr instead, for MGET and PUT, if refuse is
// set) — but only after release is closed, and kill severs everything
// mid-flight.
type fakeCache struct {
	ln      net.Listener
	release chan struct{}
	refuse  bool         // MGETs and PUTs are answered with MsgErr
	parked  atomic.Int64 // requests read and waiting for release

	mu    sync.Mutex
	conns []net.Conn
}

func startFakeCache(t *testing.T) *fakeCache {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCache{ln: ln, release: make(chan struct{})}
	t.Cleanup(f.kill)
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

func (f *fakeCache) serve(conn net.Conn) {
	var wmu sync.Mutex
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	for {
		m, err := r.ReadMsg()
		if err != nil {
			return
		}
		resp := &proto.Msg{Type: proto.MsgGetResp, Seq: m.Seq, Status: proto.StatusOK,
			Version: 1, Value: []byte(m.Key), Trace: m.Trace}
		if m.Type == proto.MsgMGet {
			resp = &proto.Msg{Type: proto.MsgMGetResp, Seq: m.Seq, Trace: m.Trace}
			for _, k := range m.Keys {
				op := proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Version: 1, Value: []byte(k)}
				if strings.HasPrefix(k, "ghost") {
					op = proto.BatchOp{Kind: proto.BatchInvalidate, Key: k}
				}
				resp.Ops = append(resp.Ops, op)
			}
		}
		if m.Type == proto.MsgPut {
			resp = &proto.Msg{Type: proto.MsgPutResp, Seq: m.Seq, Status: proto.StatusOK, Version: 7, Trace: m.Trace}
		}
		if f.refuse && m.Type != proto.MsgGet {
			resp = &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "fake: refused"}
		}
		f.parked.Add(1)
		go func() {
			<-f.release
			wmu.Lock()
			defer wmu.Unlock()
			w.WriteMsg(resp) //nolint:errcheck // the test may have killed conn
		}()
	}
}

func (f *fakeCache) kill() {
	f.ln.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.conns {
		c.Close()
	}
}

// startLBOver runs a balancer whose caches are the fakes, in that ring
// order; the store address is never dialed (no writes are sent). A
// positive upstreamTimeout replaces the cache clients' 10s request
// timeout, which Config deliberately does not expose.
func startLBOver(t *testing.T, upstreamTimeout time.Duration, fakes ...*fakeCache) (*Server, string) {
	t.Helper()
	var addrs []string
	for _, f := range fakes {
		addrs = append(addrs, f.ln.Addr().String())
	}
	b, err := New(Config{StoreAddr: "127.0.0.1:1", CacheAddrs: addrs,
		DrainTimeout: 10 * time.Second, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if upstreamTimeout > 0 {
		b.caches.Close()
		if b.caches, err = client.NewSharded(addrs, 0, client.Options{RequestTimeout: upstreamTimeout}); err != nil {
			t.Fatal(err)
		}
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(bln) //nolint:errcheck
	t.Cleanup(func() { b.Close() })
	return b, bln.Addr().String()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// getsInFlight issues n concurrent GETs through c and returns the
// channel their errors arrive on.
func getsInFlight(c *client.Client, n int) <-chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			key := fmt.Sprintf("k-%d", i)
			v, _, err := c.Get(key)
			if err == nil && string(v) != key {
				err = fmt.Errorf("Get(%q) = %q", key, v)
			}
			errs <- err
		}(i)
	}
	return errs
}

// A client that stops reading its responses must not stall another
// client's GETs: both share the one upstream connection whose reader
// runs the relay completions, so a completion may never wait on a
// client's queue.
func TestStalledClientDoesNotStallOthers(t *testing.T) {
	lbAddr, _, _ := startCluster(t, 1)
	good := client.New(lbAddr, client.Options{})
	defer good.Close()
	big := make([]byte, 64<<10)
	if _, err := good.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Put("small", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// The stalled client pipelines far more answers than its queue (64
	// frames), its in-flight bound (256) and the socket buffers hold — and
	// reads none of them.
	stalled, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	go func() {
		w := proto.NewWriter(stalled)
		for i := 0; i < 600; i++ {
			if w.WriteMsg(&proto.Msg{Type: proto.MsgGet, Seq: uint64(i + 1), Key: "big"}) != nil {
				return
			}
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 500; i++ {
		if v, _, err := good.Get("small"); err != nil || string(v) != "v" {
			t.Fatalf("Get %d beside a stalled client: %q, %v", i, v, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d GETs in 10s beside a stalled client", i)
		}
	}
}

// Close waits for relayed GETs still in flight: each is answered and
// flushed before the upstream clients are torn down.
func TestCloseDrainsRelayedGets(t *testing.T) {
	f := startFakeCache(t)
	b, lbAddr := startLBOver(t, 0, f)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	const n = 8
	errs := getsInFlight(c, n)
	waitUntil(t, "the GETs to park upstream", func() bool { return f.parked.Load() == n })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with relayed GETs unanswered")
	case <-time.After(100 * time.Millisecond):
	}
	close(f.release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("GET in flight across Close: %v", err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight GETs were answered")
	}
}

// An upstream cache dying mid-flight errors out every relayed GET —
// answered with MsgErr, none left hanging.
func TestUpstreamDeathFailsRelayedGets(t *testing.T) {
	f := startFakeCache(t)
	b, lbAddr := startLBOver(t, 0, f)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	const n = 32
	errs := getsInFlight(c, n)
	waitUntil(t, "the GETs to park upstream", func() bool { return f.parked.Load() == n })
	f.kill()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, client.ErrServer) {
				t.Errorf("GET across upstream death: %v, want the balancer's MsgErr", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d/%d GETs still hung after the upstream died", n-i, n)
		}
	}
	if got := b.StatsMap()["errors"]; got != n {
		t.Errorf("errors = %d, want %d", got, n)
	}
}

// keysByCache returns per keys for each of b's caches, by ring owner.
func keysByCache(b *Server, per int) [][]string {
	out := make([][]string, b.CacheRing().Len())
	for i, short := 0, len(out); short > 0; i++ {
		k := fmt.Sprintf("gk-%d", i)
		if ci := b.CacheRing().Owner(k); len(out[ci]) < per {
			if out[ci] = append(out[ci], k); len(out[ci]) == per {
				short--
			}
		}
	}
	return out
}

// interleave merges the per-cache key lists round-robin, so every cache's
// keys are scattered through the request.
func interleave(lists [][]string) []string {
	var out []string
	for i := 0; len(out) < len(lists)*len(lists[0]); i++ {
		out = append(out, lists[i%len(lists)][i/len(lists)])
	}
	return out
}

// rawConn is a pipelining client that sees every frame the balancer
// sends, duplicates included.
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
		rc.t.Errorf("after every MGET was answered the next frame is %+v, want the PONG", m)
	}
	if m := rc.read(100 * time.Millisecond); m != nil {
		rc.t.Errorf("stray frame after the PONG: %+v", m)
	}
}

func closeReturns(t *testing.T, b *Server) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// However a gathered MGET's sub-batches end — answered, refused, cut off
// or timed out, in any mix — the client gets exactly one answer to it,
// under its own Seq, and the balancer still closes.
func TestGatherExactlyOnce(t *testing.T) {
	const n = 8 // MGETs pipelined on the one client connection
	cases := []struct {
		name    string
		oneSide bool // every key lives on cache 0; cache 1 must not be asked
		refuse  bool // cache 1 answers MsgErr
		settle  func(f1 *fakeCache)
		wantErr string // what every answer's error mentions; "" = all succeed
		late    bool   // cache 1's answers are released after the fact
	}{
		{name: "both parts ok", settle: func(f1 *fakeCache) { close(f1.release) }},
		{name: "one part MsgErr", refuse: true, settle: func(f1 *fakeCache) { close(f1.release) },
			wantErr: "fake: refused"},
		{name: "one part transport death", settle: (*fakeCache).kill, wantErr: "client: c"}, // "connection broken" or "closed"
		{name: "one part timeout", settle: func(*fakeCache) {}, wantErr: "timed out", late: true},
		{name: "all keys on one cache", oneSide: true, settle: func(*fakeCache) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f0, f1 := startFakeCache(t), startFakeCache(t)
			f1.refuse = tc.refuse
			close(f0.release)
			b, lbAddr := startLBOver(t, 300*time.Millisecond, f0, f1)
			byCache := keysByCache(b, 4)
			keys := interleave(byCache)
			asked := int64(n)
			if tc.oneSide {
				keys, asked = byCache[0], 0
			}

			rc := dialRaw(t, lbAddr)
			for i := 1; i <= n; i++ {
				rc.send(&proto.Msg{Type: proto.MsgMGet, Seq: uint64(i), Keys: keys})
			}
			waitUntil(t, "the sub-batches to reach both caches", func() bool {
				return f0.parked.Load() == n && f1.parked.Load() == asked
			})
			tc.settle(f1)

			answers := make(map[uint64]int)
			for i := 0; i < n; i++ {
				m := rc.read(5 * time.Second)
				if m == nil {
					t.Fatalf("only %d of %d MGETs answered", i, n)
				}
				answers[m.Seq]++
				switch {
				case tc.wantErr != "":
					want := "lb: batch read via cache " + f1.ln.Addr().String()
					if m.Type != proto.MsgErr || !strings.Contains(m.Err, want) || !strings.Contains(m.Err, tc.wantErr) {
						t.Errorf("Seq %d answered %v %q, want a MsgErr with %q and %q", m.Seq, m.Type, m.Err, want, tc.wantErr)
					}
				case m.Type != proto.MsgMGetResp || len(m.Ops) != len(keys) || m.Digest != proto.KeysDigest(keys):
					t.Errorf("Seq %d answered %v with %d ops (%s), want %d answering the keys asked, in order", m.Seq, m.Type, len(m.Ops), m.Err, len(keys))
				default:
					for j, op := range m.Ops {
						if op.Kind != proto.BatchUpdate || string(op.Value) != keys[j] {
							t.Errorf("Seq %d op %d = %+v, want value %q", m.Seq, j, op, keys[j])
						}
					}
				}
			}
			for seq := uint64(1); seq <= n; seq++ {
				if answers[seq] != 1 {
					t.Errorf("Seq %d answered %d times", seq, answers[seq])
				}
			}
			if tc.late {
				close(f1.release) // the timed-out sub-batches' answers arrive now
				time.Sleep(50 * time.Millisecond)
			}
			rc.quiesced()
			wantErrs := uint64(0)
			if tc.wantErr != "" {
				wantErrs = n
			}
			if errs := b.StatsMap()["errors"]; errs != wantErrs {
				t.Errorf("errors = %d, want %d", errs, wantErrs)
			}
			if reads := b.StatsMap()["reads"]; reads != uint64(n*len(keys)) {
				t.Errorf("reads = %d, want %d", reads, n*len(keys))
			}
			closeReturns(t, b)
		})
	}
}

// Close waits for gathered MGETs still in flight: each is answered and
// flushed before the upstream clients are torn down.
func TestCloseDrainsGatheredMGets(t *testing.T) {
	f0, f1 := startFakeCache(t), startFakeCache(t)
	b, lbAddr := startLBOver(t, 0, f0, f1)
	keys := interleave(keysByCache(b, 4))
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := c.MGet(keys)
			for j := range res {
				if err == nil && string(res[j].Value) != keys[j] {
					err = fmt.Errorf("MGet[%d] = %+v, want %q", j, res[j], keys[j])
				}
			}
			errs <- err
		}()
	}
	waitUntil(t, "the sub-batches to park upstream", func() bool {
		return f0.parked.Load() == n && f1.parked.Load() == n
	})

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	close(f0.release) // half of every gather is in; the other half still out
	select {
	case <-closed:
		t.Fatal("Close returned with gathered MGETs unanswered")
	case <-time.After(100 * time.Millisecond):
	}
	close(f1.release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("MGET in flight across Close: %v", err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight MGETs were answered")
	}
}

// TestStalledClientDoesNotStallOthers for batches: the gather that
// answers a client which stopped reading runs on the upstream readers
// every other client's reads come back through.
func TestStalledClientDoesNotStallGathers(t *testing.T) {
	lbAddr, _, _ := startCluster(t, 2)
	good := client.New(lbAddr, client.Options{})
	defer good.Close()
	var keys []string
	var vals [][]byte
	for i := 0; i < 16; i++ {
		keys = append(keys, fmt.Sprintf("big-%d", i))
		vals = append(vals, make([]byte, 4<<10))
	}
	if _, err := good.MPut(keys, vals); err != nil {
		t.Fatal(err)
	}

	// 600 answers of 64 KiB each: far more than the stalled client's queue
	// (64 frames), its in-flight bound (256) and the socket buffers hold.
	stalled, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	go func() {
		w := proto.NewWriter(stalled)
		for i := 0; i < 600; i++ {
			if w.WriteMsg(&proto.Msg{Type: proto.MsgMGet, Seq: uint64(i + 1), Keys: keys}) != nil {
				return
			}
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 300; i++ {
		res, err := good.MGet(keys[:4])
		if err != nil || len(res) != 4 || !res[3].Found {
			t.Fatalf("MGet %d beside a stalled client: %+v, %v", i, res, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d MGETs in 10s beside a stalled client", i)
		}
	}
}

// The gathered answer is in request order whatever the split: duplicate
// keys each get their slot, missing keys answer BatchInvalidate where
// they were asked, and a traced batch shows one sibling hop per cache in
// cache-ring order under the balancer's own.
func TestGatherRequestOrderAndNotFound(t *testing.T) {
	lbAddr, _, _ := startCluster(t, 2)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()
	var keys []string
	var vals [][]byte
	for i := 0; i < 12; i++ {
		keys = append(keys, fmt.Sprintf("ok-%d", i))
		vals = append(vals, []byte(fmt.Sprintf("ov-%d", i)))
	}
	if _, err := c.MPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i, k := range keys {
		want[k] = string(vals[i])
	}
	ask := []string{"ok-3", "ghost-a", "ok-0", "ok-3", "ghost-b", "ok-11", "ghost-a", "ok-7", "ok-0"}
	ask = append(ask, keys...)

	rc := dialRaw(t, lbAddr)
	for round := 0; round < 3; round++ { // cold, then resident, then on a recycled gather
		rc.send(&proto.Msg{Type: proto.MsgMGet, Seq: 77, Keys: ask, Trace: &proto.Trace{ID: 9}})
		m := rc.read(5 * time.Second)
		if m == nil || m.Type != proto.MsgMGetResp || m.Seq != 77 || len(m.Ops) != len(ask) || m.Digest != proto.KeysDigest(ask) {
			t.Fatalf("round %d: MGET answered %+v", round, m)
		}
		for i, op := range m.Ops {
			v, found := want[ask[i]]
			if (op.Kind == proto.BatchUpdate) != found || string(op.Value) != v {
				t.Errorf("round %d: op %d = %+v, want key %q's value %q found %v", round, i, op, ask[i], v, found)
			}
			if !found && (op.Kind != proto.BatchInvalidate || op.Version != 0) {
				t.Errorf("round %d: missing key answered %+v, want a bare BatchInvalidate", round, op)
			}
		}
		if round == 0 {
			continue // the fills put store hops under each cache's
		}
		var hops []string
		for _, sp := range m.Trace.Spans {
			hops = append(hops, sp.Node)
		}
		// "ghost" keys miss every time, so their caches still fill.
		var tiers []string
		for _, h := range hops {
			if !strings.HasPrefix(h, "store") {
				tiers = append(tiers, h)
			}
		}
		if got := strings.Join(tiers, " "); got != "cache:cache-0 cache:cache-1 lb" {
			t.Errorf("round %d: hops %v, want cache-0, cache-1 (ring order) and lb last", round, hops)
		}
	}
	rc.quiesced()
}
