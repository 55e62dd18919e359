package lb

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
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

	b, err := New(Config{StoreAddr: sln.Addr().String(), CacheAddrs: cacheAddrs, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(bln) //nolint:errcheck
	t.Cleanup(func() { b.Close() })
	return bln.Addr().String(), caches, st
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

// fakeCache is an upstream the test controls: it answers every GET with
// the key echoed back as the value, but only after release is closed,
// and kill severs everything mid-flight.
type fakeCache struct {
	ln      net.Listener
	release chan struct{}
	parked  atomic.Int64 // GETs read and waiting for release

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
		f.parked.Add(1)
		go func(seq uint64, key string) {
			<-f.release
			wmu.Lock()
			defer wmu.Unlock()
			w.WriteMsg(&proto.Msg{Type: proto.MsgGetResp, Seq: seq, Status: proto.StatusOK, //nolint:errcheck // the test may have killed conn
				Version: 1, Value: []byte(key)})
		}(m.Seq, m.Key)
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

// startLBOver runs a balancer whose one cache is the fake; the store
// address is never dialed (no writes are sent).
func startLBOver(t *testing.T, f *fakeCache) (*Server, string) {
	t.Helper()
	b, err := New(Config{StoreAddr: "127.0.0.1:1", CacheAddrs: []string{f.ln.Addr().String()},
		DrainTimeout: 10 * time.Second, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
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
	b, lbAddr := startLBOver(t, f)
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
	b, lbAddr := startLBOver(t, f)
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
