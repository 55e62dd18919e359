package cluster_test

import (
	"bytes"
	"context"
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
	"freshcache/internal/cluster"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/store"
)

// nodeStats fetches any node's stats map over the wire.
func nodeStats(t *testing.T, addr string) map[string]uint64 {
	t.Helper()
	c := client.New(addr, client.Options{MaxAttempts: 1})
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats from %s: %v", addr, err)
	}
	return st
}

// coordStats fetches the coordinator's stats map.
func coordStats(t *testing.T, addr string) map[string]uint64 {
	t.Helper()
	c := client.New(addr, client.Options{MaxAttempts: 1})
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("coordinator stats: %v", err)
	}
	return st
}

// TestFailoverPromotesReplica is the failure-detector acceptance test
// at the control-plane level: under R=2, killing one of two
// heartbeating stores publishes a ring without it within a few lease
// intervals, and the survivor serves every key — including those the
// dead store owned — because it already replicated them, with its
// version counter ordered past everything the dead store assigned.
func TestFailoverPromotesReplica(t *testing.T) {
	// The coordinator must exist before the stores so their first
	// heartbeats land; its store list is pre-allocated listeners.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	const lease = 250 * time.Millisecond
	co, err := cluster.New(cluster.Config{
		Stores: []string{addrA, addrB}, Replicas: 2,
		LeaseInterval: lease, Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(coLn) //nolint:errcheck
	t.Cleanup(func() { co.Close() })
	coAddr := coLn.Addr().String()

	newStore := func(shard, advertise string) *store.Server {
		return store.New(store.Config{
			ShardID: shard, T: time.Hour, Logger: quiet(),
			ClusterAddr: coAddr, AdvertiseAddr: advertise,
			HeartbeatInterval: 25 * time.Millisecond,
		})
	}
	stA, stB := newStore("A", addrA), newStore("B", addrB)
	go stA.Serve(lnA) //nolint:errcheck
	go stB.Serve(lnB) //nolint:errcheck
	t.Cleanup(func() { stA.Close(); stB.Close() })

	// Wait until both stores learned the ring from their heartbeats.
	r, err := ring.New([]string{addrA, addrB}, co.RingInfo().VirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "stores never installed the ring", func() bool {
		return nodeStats(t, addrA)["ring_epoch"] >= 1 && nodeStats(t, addrB)["ring_epoch"] >= 1
	})
	// ... and until each holds a lease. A store can learn the ring without
	// one — the other store's replica sync carries it — and the failure
	// detector only watches stores that have heartbeat at least once: a
	// store killed before its first beat landed is never failed over.
	waitFor(t, 5*time.Second, "stores never took out their leases", func() bool {
		cs := coordStats(t, coAddr)
		_, a := cs["lease_age_ms["+addrA+"]"]
		_, b := cs["lease_age_ms["+addrB+"]"]
		return a && b
	})

	// Writes through either store land on the owner and, before the
	// ack, on its replica.
	c := client.New(addrA, client.Options{})
	defer c.Close()
	versions := make(map[string]uint64, 40)
	var deadOwned string
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("fo-key-%02d", i)
		v, err := c.Put(key, []byte(key))
		if err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
		versions[key] = v
		if r.OwnerAddr(key) == addrA {
			deadOwned = key
		}
	}
	if deadOwned == "" {
		t.Fatal("hash placed no key on store A")
	}

	stA.Close() // crash the primary of deadOwned

	// Promotion within a few lease intervals. The condition is phrased
	// against membership, not an exact epoch: on a loaded runner the
	// survivor's own heartbeats can be starved long enough to flap it
	// out and back in, burning extra epochs along the way.
	start := time.Now()
	waitFor(t, 5*time.Second, "coordinator never failed the dead store over", func() bool {
		ri := co.RingInfo()
		for _, n := range ri.Nodes {
			if n == addrA {
				return false
			}
		}
		for _, n := range ri.Nodes {
			if n == addrB {
				return true
			}
		}
		return false
	})
	if detect := time.Since(start); detect > 8*lease {
		t.Errorf("failover took %v, want within ~%v", detect, 8*lease)
	}
	if got := coordStats(t, coAddr)["failovers"]; got < 1 {
		t.Errorf("failovers stat = %d, want at least 1", got)
	}

	// The survivor installed the new ring (release or anti-entropy)
	// and serves every key, including the dead store's, at the exact
	// acknowledged versions.
	cb := client.New(addrB, client.Options{})
	defer cb.Close()
	waitFor(t, 5*time.Second, "survivor never installed the failover ring", func() bool {
		return nodeStats(t, addrB)["ring_epoch"] >= 2
	})
	for key, want := range versions {
		value, got, err := cb.Get(key)
		if err != nil {
			t.Fatalf("post-failover get %q: %v", key, err)
		}
		if got != want || string(value) != key {
			t.Errorf("key %q: got %q v%d, want %q v%d", key, value, got, key, want)
		}
	}
	// Promotion monotonicity: the survivor's next write to a key the
	// dead store owned is versioned past the dead store's assignment.
	v2, err := cb.Put(deadOwned, []byte("promoted"))
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= versions[deadOwned] {
		t.Errorf("promoted write got version %d, not past the dead primary's %d", v2, versions[deadOwned])
	}
}

// brokenAdopter is a fake store that answers pings but fails every
// adopt — a store alive enough to hold a lease yet unable to complete
// a membership change, the shape that used to wedge the coordinator.
// The returned kill closes its listener (the store "dies").
func brokenAdopter(t *testing.T) (addr string, kill func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r, w := proto.NewReader(conn), proto.NewWriter(conn)
				for {
					m, err := r.ReadMsg()
					if err != nil {
						return
					}
					resp := &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
					if m.Type != proto.MsgPing {
						resp = &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "broken adopter"}
					}
					if err := w.WriteMsg(resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestAdoptFailureSelfRecovers is the regression test for the
// coordinator wedge: a join that fails mid-adopt used to latch the
// cluster behind a manual retry of the same join. Now the coordinator
// retries on its own and, when the retries are exhausted, rolls the
// change back — after which an unrelated membership change succeeds
// with no operator involvement.
func TestAdoptFailureSelfRecovers(t *testing.T) {
	_, addr0 := startStore(t, "seed")
	co, coAddr := startCoordinatorCfg(t, cluster.Config{
		Stores:           []string{addr0},
		RecoveryInterval: 30 * time.Millisecond,
		RecoveryAttempts: 2,
		ChangeTimeout:    2 * time.Second,
		Logger:           quiet(),
	})

	broken, _ := brokenAdopter(t)
	if _, err := co.Join(broken); err == nil {
		t.Fatal("join of the broken adopter succeeded")
	}

	// While the failed change is pending, other changes are refused —
	// that part of the latch is load-bearing (a different change would
	// strand half-switched donors).
	_, addr1 := startStore(t, "next")
	if _, err := co.Join(addr1); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("join during a pending change: err = %v, want the incomplete-change refusal", err)
	}

	// Self-recovery: the coordinator retries, gives up, rolls back
	// (epoch bumps past the stranded candidate), and unlatches.
	waitFor(t, 5*time.Second, "coordinator never rolled the failed join back", func() bool {
		return coordStats(t, coAddr)["rollbacks"] == 1
	})
	ri := co.RingInfo()
	if len(ri.Nodes) != 1 || ri.Nodes[0] != addr0 {
		t.Fatalf("membership after rollback: %v", ri.Nodes)
	}

	// The cluster is operable again without any manual retry.
	ri, err := co.Join(addr1)
	if err != nil {
		t.Fatalf("join after self-recovery: %v", err)
	}
	if len(ri.Nodes) != 2 {
		t.Fatalf("post-recovery ring: %v", ri.Nodes)
	}
}

// TestDeadJoinerRollsBackViaDetector covers the other recovery path:
// the half-adopted store dies outright (no pings), so the retry loop
// skips straight to rollback instead of burning retries.
func TestDeadJoinerRollsBackViaDetector(t *testing.T) {
	_, addr0 := startStore(t, "seed")
	co, coAddr := startCoordinatorCfg(t, cluster.Config{
		Stores:           []string{addr0},
		RecoveryInterval: 30 * time.Millisecond,
		RecoveryAttempts: 5,
		ChangeTimeout:    2 * time.Second,
		Logger:           quiet(),
	})

	// A joiner that accepts the ping, errors the adopt, then dies.
	broken, kill := brokenAdopter(t)
	if _, err := co.Join(broken); err == nil {
		t.Fatal("join of the broken adopter succeeded")
	}
	// Kill it: subsequent recovery probes fail, forcing the rollback
	// without waiting out RecoveryAttempts.
	kill()

	waitFor(t, 5*time.Second, "dead joiner never rolled back", func() bool {
		return coordStats(t, coAddr)["rollbacks"] == 1
	})
	if p := coordStats(t, coAddr); p["ring_epoch"] < 2 {
		t.Fatalf("rollback did not republish: stats %v", p)
	}
}

// TestWatcherFailureVisibility pins the watcher's observability fix:
// consecutive poll failures against a dead coordinator are counted,
// surfaced through the stall hook, and logged once past the threshold
// (with a recovery line when the coordinator answers again) — a dead
// coordinator is no longer indistinguishable from a quiet one.
func TestWatcherFailureVisibility(t *testing.T) {
	// A coordinator that exists, then dies.
	co, coAddr := startCoordinatorCfg(t, cluster.Config{Stores: []string{"127.0.0.1:1"}, Logger: quiet()})

	var maxConsecutive atomic.Uint64
	var buf bytes.Buffer
	var bufMu sync.Mutex
	w := cluster.NewWatcher(coAddr, 5*time.Millisecond, 0, func(client.RingInfo) {})
	w.SetLogger(log.New(&lockedWriter{mu: &bufMu, w: &buf}, "", 0))
	w.OnStall(func(n uint64, err error) {
		if n > maxConsecutive.Load() {
			maxConsecutive.Store(n)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()

	// Healthy polls first: no failures accumulate.
	time.Sleep(50 * time.Millisecond)
	if got := w.ConsecutiveFailures(); got != 0 {
		t.Fatalf("healthy watcher shows %d consecutive failures", got)
	}

	co.Close() // the coordinator dies
	waitFor(t, 5*time.Second, "failures never crossed the stall threshold", func() bool {
		return w.ConsecutiveFailures() >= 5
	})
	if maxConsecutive.Load() < 5 {
		t.Errorf("stall hook peaked at %d, want >= 5", maxConsecutive.Load())
	}
	if got := w.FailedPolls(); got < 5 {
		t.Errorf("cumulative failed polls = %d, want >= 5", got)
	}
	bufMu.Lock()
	logged := buf.String()
	bufMu.Unlock()
	if !strings.Contains(logged, "unreachable") {
		t.Errorf("no unreachable line logged past the threshold; log: %q", logged)
	}
	// Exactly once, not once per failed poll.
	if n := strings.Count(logged, "unreachable"); n != 1 {
		t.Errorf("unreachable logged %d times, want 1", n)
	}
	cancel()
	<-done
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// startCoordinatorCfg is startCoordinator with a full config.
func startCoordinatorCfg(t *testing.T, cfg cluster.Config) (*cluster.Coordinator, string) {
	t.Helper()
	co, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { co.Close() })
	return co, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
