package client

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"freshcache/internal/proto"
)

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// A down shard must not fail the whole Stats/Ping fan-out: the healthy
// shards' results come back, annotated with the per-shard error.
func TestShardedPartialStatsAndPing(t *testing.T) {
	up1, _ := echoServer(t)
	up2, _ := echoServer(t)
	down := deadAddr(t)

	s, err := NewSharded([]string{up1, down, up2}, 16, Options{
		DialTimeout: 250 * time.Millisecond, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stats, errs := s.Stats()
	if len(errs) != 1 {
		t.Fatalf("Stats errors = %v, want exactly the down shard", errs)
	}
	if errs[0].Addr != down {
		t.Errorf("Stats error names %s, want %s", errs[0].Addr, down)
	}
	if stats["x"] != 2 {
		t.Errorf("partial aggregate x = %d, want 2 (both healthy shards)", stats["x"])
	}
	if stats["shards_reporting"] != 2 {
		t.Errorf("shards_reporting = %d, want 2", stats["shards_reporting"])
	}

	perrs := s.Ping()
	if len(perrs) != 1 || perrs[0].Addr != down {
		t.Fatalf("Ping errors = %v, want exactly the down shard", perrs)
	}

	// A fully healthy fleet reports no errors.
	s2, err := NewSharded([]string{up1, up2}, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if errs := s2.Ping(); errs != nil {
		t.Fatalf("healthy Ping errors = %v", errs)
	}
	if _, errs := s2.Stats(); errs != nil {
		t.Fatalf("healthy Stats errors = %v", errs)
	}
}

// SwapRing must gate on epoch, reroute keys to the grown ring, and
// keep serving through the swap on reused connections.
func TestShardedSwapRing(t *testing.T) {
	a, _ := echoServer(t)
	b, _ := echoServer(t)
	c, _ := echoServer(t)

	s, err := NewSharded([]string{a, b}, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Epoch() != 0 || s.Len() != 2 {
		t.Fatalf("initial epoch/len = %d/%d", s.Epoch(), s.Len())
	}
	if _, err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	if err := s.SwapRing(2, []string{a, b, c}, 16); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 || s.Len() != 3 {
		t.Fatalf("post-swap epoch/len = %d/%d", s.Epoch(), s.Len())
	}
	// Stale and duplicate publishes are no-ops.
	if err := s.SwapRing(1, []string{a}, 16); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapRing(2, []string{a}, 16); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("stale swap changed the ring: len = %d", s.Len())
	}
	// The grown fleet still serves key-addressed calls.
	if _, err := s.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if errs := s.Ping(); errs != nil {
		t.Fatalf("Ping after swap: %v", errs)
	}
}

// TestShardedFailoverRetry pins the owner-failover path: a
// key-addressed call that fails at the transport level must trigger an
// on-demand ring refresh and a single retry against the key's new
// owner, instead of erroring until a watcher delivers the next epoch.
func TestShardedFailoverRetry(t *testing.T) {
	up, _ := echoServer(t)
	down := deadAddr(t)

	s, err := NewSharded([]string{down}, 16, Options{
		DialTimeout: 100 * time.Millisecond, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Without a refresher the failure surfaces.
	if _, err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("put against the dead owner succeeded")
	}

	refreshes := 0
	s.SetRefresher(func() (RingInfo, bool) {
		refreshes++
		return RingInfo{Epoch: 2, Nodes: []string{up}, VirtualNodes: 16}, true
	})
	if _, err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("put after failover retry: %v", err)
	}
	if refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", refreshes)
	}
	if s.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", s.Failovers())
	}
	if s.Epoch() != 2 {
		t.Errorf("epoch after refresh = %d, want 2", s.Epoch())
	}
	// The swapped ring serves reads too, with no further refreshes.
	if _, _, err := s.Get("k"); err != nil {
		t.Fatalf("get after failover: %v", err)
	}
	if refreshes != 1 {
		t.Errorf("healthy call triggered a refresh (refreshes = %d)", refreshes)
	}
}

// A traced batch whose owner dies under it shows the promoted owner's hop:
// the retry carries the request's trace ID, as a single key's always did
// (the batch verbs used to re-send with trace ID 0).
func TestShardedTracedBatchAcrossPromotion(t *testing.T) {
	keys, vals := []string{"a", "b", "c"}, [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	verbs := map[string]func(s *Sharded) (errs []error, traces []*proto.Trace){
		"MFILL": func(s *Sharded) (errs []error, traces []*proto.Trace) {
			res, traces := s.MFillTraced(keys, 5)
			for i, r := range res {
				if r.Err == nil && string(r.Value) != keys[i] {
					r.Err = fmt.Errorf("read %q", r.Value)
				}
				errs = append(errs, r.Err)
			}
			return errs, traces
		},
		"MPUT": func(s *Sharded) (errs []error, traces []*proto.Trace) {
			res, traces := s.MPutTraced(keys, vals, 5)
			for _, r := range res {
				if r.Err == nil && r.Version != 7 {
					r.Err = fmt.Errorf("version %d", r.Version)
				}
				errs = append(errs, r.Err)
			}
			return errs, traces
		},
	}
	for name, call := range verbs {
		t.Run(name, func(t *testing.T) {
			dying, promoted := startScatterNode(t, "dying"), startScatterNode(t, "promoted")
			close(promoted.release)
			s, err := NewSharded([]string{dying.addr()}, 16, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetRefresher(func() (RingInfo, bool) {
				return RingInfo{Epoch: 2, Nodes: []string{promoted.addr()}, VirtualNodes: 16}, true
			})
			go func() {
				for dying.parked.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				dying.kill()
			}()
			errs, traces := call(s)
			for i, err := range errs {
				if err != nil {
					t.Errorf("%s: %v, want the promoted owner's answer", keys[i], err)
				}
			}
			if len(traces) != 1 || traces[0] == nil || traces[0].ID != 5 || len(traces[0].Spans) != 1 || traces[0].Spans[0].Node != "promoted" {
				t.Errorf("traces = %+v, want the promoted owner's span under trace 5", traces)
			}
			if got := promoted.traced.Load(); got != 1 {
				t.Errorf("the promoted owner was sent %d traced requests, want 1", got)
			}
		})
	}
}

// A missing key is a server answer, not an owner failure: it must not
// trigger a refresh.
func TestShardedNotFoundDoesNotFailover(t *testing.T) {
	up, _ := echoServer(t)
	s, err := NewSharded([]string{up}, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	refreshes := 0
	s.SetRefresher(func() (RingInfo, bool) {
		refreshes++
		return RingInfo{}, false
	})
	if _, _, err := s.Get("absent"); err == nil {
		t.Fatal("expected not-found")
	}
	if refreshes != 0 {
		t.Errorf("not-found triggered %d refreshes", refreshes)
	}
}

// The retry half of an asynchronous fill — what a completion handed a
// transport error runs, on a goroutine of its own — refreshes the ring and
// tries again only where that helps: on the key's new owner, if it has one.
// An owner that merely timed out is not asked twice. (A scattered request's
// failed leg takes the same rule, reroute: TestScatterRecord.)
func TestRetryOnlyWhenTheOwnerMoved(t *testing.T) {
	up, requests := echoServer(t)
	down := deadAddr(t)
	s, err := NewSharded([]string{down}, 16, Options{DialTimeout: 100 * time.Millisecond, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	failed := s.For("k")
	transport := errors.New("client: request timed out")
	count := func() (n int) {
		requests.Range(func(_, _ any) bool { n++; return true })
		return n
	}

	// No refresher: the error stands.
	if _, _, _, err := s.FillRetry(failed, "k", 0, transport); err != transport {
		t.Errorf("FillRetry without a refresher = %v, want the original error", err)
	}
	refreshes, nodes := 0, []string{down}
	s.SetRefresher(func() (RingInfo, bool) {
		refreshes++
		return RingInfo{Epoch: uint64(1 + refreshes), Nodes: nodes, VirtualNodes: 16}, true
	})
	// A server's answer is no reason to look for another owner.
	refused := fmt.Errorf("%w: no", ErrServer)
	if _, _, _, err := s.FillRetry(failed, "k", 0, refused); err != refused || refreshes != 0 {
		t.Errorf("FillRetry after a server error = %v with %d refreshes, want the error back and none", err, refreshes)
	}
	// Refreshed, but the key still lives on the node that failed.
	if _, _, _, err := s.FillRetry(failed, "k", 0, transport); err != transport || refreshes != 1 {
		t.Errorf("FillRetry with the owner unchanged = %v with %d refreshes, want the original error and 1", err, refreshes)
	}
	if s.Failovers() != 0 || count() != 0 {
		t.Errorf("failovers = %d, requests sent = %d; want none of either", s.Failovers(), count())
	}
	// The ring moved the key: one retry, on the new owner.
	nodes = []string{up}
	time.Sleep(refreshMinGap)
	direct := New(up, Options{})
	defer direct.Close()
	if _, err := direct.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, _, _, err := s.FillRetry(failed, "k", 0, transport); err != nil || string(v) != "v" {
		t.Errorf("FillRetry onto the promoted owner = %q, %v", v, err)
	}
	if s.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", s.Failovers())
	}
}
