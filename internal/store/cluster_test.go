package store

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
)

// Cluster-path tests: two or three in-process stores over loopback,
// driven by hand-sent ADOPT/RELEASE commands (no coordinator), covering
// the cross-store legs of the data path — batch reads and writes with
// keys owned elsewhere, replicated batch acks with a replica down,
// writes landing in a range while it streams out, a forward switch
// rolled back at ACK, and read reports relayed to the owner.

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c := client.New(addr, client.Options{})
	t.Cleanup(func() { c.Close() })
	return c
}

// startStores runs n stores and hand-publishes one ring over all of
// them (epoch 1, replication factor replicas) with a RELEASE each.
func startStores(t *testing.T, n, replicas int) ([]*Server, []string, *ring.Ring) {
	t.Helper()
	stores, addrs := make([]*Server, n), make([]string, n)
	for i := range stores {
		stores[i], addrs[i] = startStore(t, Config{ShardID: fmt.Sprintf("s%d", i)})
	}
	ri := client.RingInfo{Epoch: 1, Nodes: addrs, Replicas: replicas}
	for _, a := range addrs {
		if err := dial(t, a).Release(ri, a); err != nil {
			t.Fatalf("release to %s: %v", a, err)
		}
	}
	r, err := ring.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return stores, addrs, r
}

// keysWhere returns n distinct keys satisfying pred.
func keysWhere(prefix string, n int, pred func(key string) bool) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		if k := fmt.Sprintf("%s-%05d", prefix, i); pred(k) {
			out = append(out, k)
		}
	}
	return out
}

func ownedBy(r *ring.Ring, addr string) func(string) bool {
	return func(k string) bool { return r.OwnerAddr(k) == addr }
}

// holds asserts s's authority holds key at exactly version.
func holds(t *testing.T, s *Server, key string, version uint64) {
	t.Helper()
	if _, got, ok := s.Authority().Get(key); !ok || got != version {
		t.Fatalf("store %s holds %q at v%d (present=%v), want v%d", s.ShardID(), key, got, ok, version)
	}
}

// TestBatchAcrossOwners drives MGET/MFILL/MPUT at a store that owns
// only some of the keys: results come back in request order, a remote
// not-found stays a not-found, and a dead owner fails only its keys on
// MPUT but the whole request on MGET.
func TestBatchAcrossOwners(t *testing.T) {
	stores, addrs, r := startStores(t, 3, 1)
	a := keysWhere("k", 3, ownedBy(r, addrs[0]))
	b := keysWhere("k", 2, ownedBy(r, addrs[1]))
	c := keysWhere("k", 1, ownedBy(r, addrs[2]))
	cA := dial(t, addrs[0])

	put := []string{a[0], b[0], c[0], a[1]}
	vals := make([][]byte, len(put))
	for i, k := range put {
		vals[i] = []byte("v:" + k)
	}
	res, err := cA.MPut(put, vals)
	if err != nil {
		t.Fatalf("mput across owners: %v", err)
	}
	version := make(map[string]uint64)
	for i, k := range put {
		if res[i].Err != nil || res[i].Version == 0 {
			t.Fatalf("mput %q: version %d err %v", k, res[i].Version, res[i].Err)
		}
		version[k] = res[i].Version
	}
	holds(t, stores[0], a[0], version[a[0]])
	holds(t, stores[1], b[0], version[b[0]])
	holds(t, stores[2], c[0], version[c[0]])
	if _, _, ok := stores[0].Authority().Get(b[0]); ok {
		t.Fatalf("forwarded key %q was also written locally", b[0])
	}
	if got := stores[0].c.ForwardedPuts.Value(); got != 2 {
		t.Fatalf("forwarded_puts = %d, want 2", got)
	}

	// a[2] and b[1] were never written: one local and one remote miss.
	get := []string{a[0], b[1], c[0], b[0], a[2], a[1]}
	for _, tc := range []struct {
		name string
		call func([]string) ([]client.MGetResult, error)
	}{{"MGET", cA.MGet}, {"MFILL", cA.MFill}} {
		got, err := tc.call(get)
		if err != nil {
			t.Fatalf("%s across owners: %v", tc.name, err)
		}
		for i, k := range get {
			want, written := version[k]
			if got[i].Err != nil || got[i].Found != written {
				t.Fatalf("%s[%d] %q: found=%v err=%v, want found=%v", tc.name, i, k, got[i].Found, got[i].Err, written)
			}
			if written && (got[i].Version != want || string(got[i].Value) != "v:"+k) {
				t.Fatalf("%s[%d] %q = %q v%d, want v%d", tc.name, i, k, got[i].Value, got[i].Version, want)
			}
		}
	}
	if got := stores[0].c.ForwardedReads.Value(); got != 6 {
		t.Fatalf("forwarded_reads = %d, want 6 (3 remote keys x 2 requests)", got)
	}

	stores[2].Close()
	if _, err := cA.MGet([]string{a[0], c[0]}); err == nil {
		t.Fatal("MGET with a dead owner succeeded; want the whole request to fail")
	}
	if got, err := cA.MGet([]string{a[0], b[0]}); err != nil || !got[0].Found || !got[1].Found {
		t.Fatalf("MGET avoiding the dead owner: %+v, %v", got, err)
	}
	res, err = cA.MPut([]string{a[0], c[0], b[0]}, [][]byte{[]byte("x"), []byte("y"), []byte("z")})
	if err != nil {
		t.Fatalf("MPUT with a dead owner failed wholesale: %v", err)
	}
	if res[0].Err != nil || res[2].Err != nil || res[1].Err == nil {
		t.Fatalf("MPUT with a dead owner: errs = %v / %v / %v, want only the dead owner's key failed",
			res[0].Err, res[1].Err, res[2].Err)
	}
	holds(t, stores[0], a[0], res[0].Version)
	holds(t, stores[1], b[0], res[2].Version)
}

// TestReplicatedWritesReplicaDown pins the withheld ack under R = 2,
// for PUT and MPUT alike: a key whose replica cannot confirm answers
// failed, the rest acknowledge, and every acknowledged write is already
// on its replica under the primary's version.
func TestReplicatedWritesReplicaDown(t *testing.T) {
	stores, addrs, r := startStores(t, 3, 2)
	replicaOf := func(k string) string { return r.Replicas(k, 2)[1] }
	viaB := keysWhere("k", 3, func(k string) bool { return r.OwnerAddr(k) == addrs[0] && replicaOf(k) == addrs[1] })
	viaC := keysWhere("k", 3, func(k string) bool { return r.OwnerAddr(k) == addrs[0] && replicaOf(k) == addrs[2] })
	cA := dial(t, addrs[0])

	keys := []string{viaB[0], viaC[0], viaB[1], viaC[1]}
	vals := [][]byte{[]byte("1"), []byte("2"), []byte("3"), []byte("4")}
	res, err := cA.MPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if res[i].Err != nil {
			t.Fatalf("healthy replicated mput %q: %v", k, res[i].Err)
		}
		holds(t, stores[0], k, res[i].Version)
		holds(t, stores[1+i%2], k, res[i].Version)
	}

	stores[2].Close()
	res, err = cA.MPut(keys, vals)
	if err != nil {
		t.Fatalf("mput with a replica down failed wholesale: %v", err)
	}
	for i, k := range keys {
		if down := i%2 == 1; (res[i].Err != nil) != down {
			t.Fatalf("mput %q with its replica down=%v: err %v", k, down, res[i].Err)
		}
		if res[i].Err == nil {
			holds(t, stores[1], k, res[i].Version)
		}
	}
	if _, err := cA.Put(viaC[2], []byte("5")); err == nil {
		t.Fatal("put acknowledged with its replica down")
	}
	v, err := cA.Put(viaB[2], []byte("6"))
	if err != nil {
		t.Fatalf("put with a live replica: %v", err)
	}
	holds(t, stores[1], viaB[2], v)
}

// donorFront stands in for the donor's listener during one handoff: it
// accepts the adopter's pull connection and serves it by calling the
// donor's dispatch in-process over an unbuffered writer queue, so the
// donor blocks on every stream frame until the front relays it. That
// makes "a write lands mid-stream" and "a write lands between DONE and
// ACK" exact: midStream runs after the first stream frame is taken
// (the donor cannot reach its dirty rounds before the second is), and
// beforeAck runs with the adopter's ACK in hand but not yet delivered.
// frames records every stream frame relayed after midStream returned.
type donorFront struct {
	addr      string
	midStream func()
	beforeAck func()
	frames    []*proto.Msg
	done      chan struct{}
}

func startDonorFront(t *testing.T, donor *Server, midStream, beforeAck func()) *donorFront {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &donorFront{addr: ln.Addr().String(), midStream: midStream, beforeAck: beforeAck, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
		rd, w := proto.NewReader(conn), proto.NewWriter(conn)
		var cs connState
		defer func() {
			if cs.mig != nil {
				donor.abortMigration(cs.mig) // what handleConn does on disconnect
			}
		}()
		out := make(chan proto.Outgoing)
		migrate, err := rd.ReadMsg()
		if err != nil {
			t.Errorf("donor front: reading pull request: %v", err)
			return
		}
		last := make(chan *proto.Msg, 1)
		go func() { last <- donor.dispatch(migrate, conn, &cs, out, nil) }()
		for relayed := 0; ; relayed++ {
			select {
			case o := <-out:
				if relayed == 0 && f.midStream != nil {
					f.midStream()
				} else if relayed > 0 {
					f.frames = append(f.frames, o.Msg)
				}
				if err := w.WriteMsg(o.Msg); err != nil {
					t.Errorf("donor front: relaying stream: %v", err)
					return
				}
				continue
			case end := <-last:
				if err := w.WriteMsg(end); err != nil {
					t.Errorf("donor front: relaying stream end: %v", err)
					return
				}
			}
			break
		}
		ack, err := rd.ReadMsg()
		if err != nil {
			return // the adopter gave up (stream ended in an error)
		}
		if f.beforeAck != nil {
			f.beforeAck()
		}
		w.WriteMsg(donor.dispatch(ack, conn, &cs, out, nil)) //nolint:errcheck
		io.Copy(io.Discard, conn)                            //nolint:errcheck // hold the connection until the adopter hangs up
	}()
	return f
}

// adopt hand-sends the ADOPT command a coordinator would: target (ring
// identity self) pulls its range of the candidate ring from donors.
func adopt(t *testing.T, target, self string, nodes, donors []string) error {
	t.Helper()
	return dial(t, target).Adopt(client.RingInfo{Epoch: 1, Nodes: nodes}, self, donors)
}

// TestWritesDuringMigrationStream lands a PUT and an MPUT in a range
// while it streams to the adopter, and one more PUT between the
// stream's end and the forward switch: a dirty round delivers the
// former (counted in keys_migrated_in), the tail transfer the latter,
// and after the switch the donor forwards.
func TestWritesDuringMigrationStream(t *testing.T) {
	sA, addrA := startStore(t, Config{ShardID: "A"})
	sB, addrB := startStore(t, Config{ShardID: "B"})
	cand, err := ring.New([]string{addrA, addrB}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// More than one stream chunk's worth of moved keys, so the donor is
	// still mid-stream when the first frame reaches the front.
	moved := keysWhere("mig", migChunkOps+88, ownedBy(cand, addrB))
	stay := keysWhere("mig", 8, ownedBy(cand, addrA))
	cA := dial(t, addrA)
	for _, k := range append(append([]string(nil), moved...), stay...) {
		if _, err := cA.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}

	acked := make(map[string]uint64)
	front := startDonorFront(t, sA,
		func() {
			v, err := cA.Put(moved[0], []byte("new"))
			if err != nil {
				t.Errorf("mid-stream put: %v", err)
			}
			acked[moved[0]] = v
			res, err := cA.MPut([]string{moved[1], stay[0]}, [][]byte{[]byte("new"), []byte("new")})
			if err != nil || res[0].Err != nil || res[1].Err != nil {
				t.Errorf("mid-stream mput: %+v, %v", res, err)
				return
			}
			acked[moved[1]], acked[stay[0]] = res[0].Version, res[1].Version
		},
		func() {
			v, err := cA.Put(moved[2], []byte("new"))
			if err != nil {
				t.Errorf("pre-ack put: %v", err)
			}
			acked[moved[2]] = v
		})
	if err := adopt(t, addrB, addrB, []string{addrA, addrB}, []string{front.addr}); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	<-front.done

	streamed := make(map[string]uint64)
	for _, fr := range front.frames {
		for _, op := range fr.Ops {
			streamed[op.Key] = op.Version
		}
	}
	for _, k := range moved[:2] {
		if streamed[k] != acked[k] {
			t.Errorf("dirty round streamed %q at v%d, want the mid-stream write v%d", k, streamed[k], acked[k])
		}
	}
	if _, ok := streamed[stay[0]]; ok {
		t.Errorf("%q stays with the donor but was streamed", stay[0])
	}
	for _, k := range moved[:3] {
		holds(t, sB, k, acked[k])
	}
	holds(t, sA, stay[0], acked[stay[0]])
	// The snapshot restores every moved key once, the dirty round the two
	// mid-stream writes again; the tail push is outside the stream count.
	if got, want := sB.c.KeysMigratedIn.Value(), uint64(len(moved)+2); got != want {
		t.Errorf("keys_migrated_in = %d, want %d", got, want)
	}
	if got, want := sA.c.KeysMigratedOut.Value(), uint64(len(moved)); got != want {
		t.Errorf("keys_migrated_out = %d, want %d", got, want)
	}
	if got := sB.Authority().Version(); got < acked[moved[2]] {
		t.Errorf("adopter version counter %d not fenced past the donor's %d", got, acked[moved[2]])
	}

	// Switched: the donor forwards the moved range, serves the rest.
	v, err := cA.Put(moved[3], []byte("fwd"))
	if err != nil {
		t.Fatalf("put after the switch: %v", err)
	}
	holds(t, sB, moved[3], v)
	if got := sA.c.ForwardedPuts.Value(); got != 1 {
		t.Errorf("forwarded_puts = %d, want 1", got)
	}
	if val, _, err := cA.Get(moved[3]); err != nil || string(val) != "fwd" {
		t.Errorf("forwarded read = %q, %v", val, err)
	}
}

// pingOnlyProxy fronts a store; while broken it relays PINGs but cuts
// the connection on any other request — an adopter that answers the
// donor's pre-switch probe and then dies under the version fence.
type pingOnlyProxy struct {
	addr   string
	broken atomic.Bool
}

func startPingOnlyProxy(t *testing.T, backend string) *pingOnlyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &pingOnlyProxy{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				up, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer up.Close()
				go io.Copy(conn, up) //nolint:errcheck
				rd, w := proto.NewReader(conn), proto.NewWriter(up)
				for {
					m, err := rd.ReadMsg()
					if err != nil || (p.broken.Load() && m.Type != proto.MsgPing) {
						return
					}
					if w.WriteMsg(m) != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// TestForwardSwitchRollback kills the adopter under the version fence:
// the donor rolls the switch back and fails the ACK, later writes stay
// local, and the retried handoff streams them (and the tail the failed
// switch had collected) to the adopter.
func TestForwardSwitchRollback(t *testing.T) {
	sA, addrA := startStore(t, Config{ShardID: "A"})
	sB, addrB := startStore(t, Config{ShardID: "B"})
	proxy := startPingOnlyProxy(t, addrB) // B's ring identity
	proxy.broken.Store(true)
	nodes := []string{addrA, proxy.addr}
	cand, err := ring.New(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := keysWhere("rb", 24, ownedBy(cand, proxy.addr))
	cA := dial(t, addrA)
	for _, k := range moved {
		if _, err := cA.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}

	var tail uint64
	front := startDonorFront(t, sA, nil, func() {
		v, err := cA.Put(moved[0], []byte("tail"))
		if err != nil {
			t.Errorf("pre-ack put: %v", err)
		}
		tail = v
	})
	if err := adopt(t, addrB, proxy.addr, nodes, []string{front.addr}); err == nil {
		t.Fatal("adopt succeeded although the version fence could not reach the adopter")
	}
	<-front.done
	later, err := cA.Put(moved[1], []byte("later"))
	if err != nil {
		t.Fatalf("put after the rolled-back switch: %v", err)
	}
	holds(t, sA, moved[1], later)
	if got := sA.c.ForwardedPuts.Value(); got != 0 {
		t.Fatalf("forwarded_puts = %d after a rolled-back switch, want 0", got)
	}

	proxy.broken.Store(false)
	if err := adopt(t, addrB, proxy.addr, nodes, []string{addrA}); err != nil {
		t.Fatalf("retried adopt: %v", err)
	}
	holds(t, sB, moved[0], tail)
	holds(t, sB, moved[1], later)
	v, err := cA.Put(moved[2], []byte("fwd"))
	if err != nil {
		t.Fatalf("put after the retried switch: %v", err)
	}
	holds(t, sB, moved[2], v)
	if got := sA.c.ForwardedPuts.Value(); got != 1 {
		t.Fatalf("forwarded_puts = %d, want 1", got)
	}
}

// TestStrayReadReportsReachOwner: read counts reported to a store for
// keys the ring places elsewhere are relayed to the owner's engine.
func TestStrayReadReportsReachOwner(t *testing.T) {
	stores, addrs, r := startStores(t, 2, 1)
	mine := keysWhere("rr", 1, ownedBy(r, addrs[0]))[0]
	theirs := keysWhere("rr", 1, ownedBy(r, addrs[1]))[0]
	err := dial(t, addrs[0]).ReadReport([]proto.ReadReport{{Key: theirs, Count: 7}, {Key: mine, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if reads, _ := stores[0].Engine().KeyFreq(mine); reads == 0 {
		t.Errorf("locally owned report for %q not observed", mine)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reads, _ := stores[1].Engine().KeyFreq(theirs); reads > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stray report for %q never reached its owner's engine", theirs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
