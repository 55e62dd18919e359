package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"freshcache/internal/proto"
)

// MGet/MPut round-trip, per-key results in request order, missing keys
// as clean not-founds.
func TestBatchVerbs(t *testing.T) {
	addr, _ := echoServer(t)
	c := New(addr, Options{})
	defer c.Close()

	keys := []string{"b1", "b2", "b3"}
	vals := [][]byte{[]byte("v1"), []byte("v2"), []byte("v3")}
	wres, err := c.MPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range wres {
		if r.Err != nil || r.Version != 1 {
			t.Errorf("MPut[%d] = %+v", i, r)
		}
	}

	rkeys := []string{"b2", "absent", "b1", "b2"} // dup in one batch
	rres, err := c.MGet(rkeys)
	if err != nil {
		t.Fatal(err)
	}
	if len(rres) != len(rkeys) {
		t.Fatalf("MGet returned %d results", len(rres))
	}
	want := []struct {
		found bool
		val   string
	}{{true, "v2"}, {false, ""}, {true, "v1"}, {true, "v2"}}
	for i, w := range want {
		r := rres[i]
		if r.Err != nil || r.Found != w.found || (w.found && string(r.Value) != w.val) {
			t.Errorf("MGet[%d] = %+v, want found=%v %q", i, r, w.found, w.val)
		}
	}

	// Zero-key batches are no-ops, not wire traffic.
	if res, err := c.MGet(nil); err != nil || len(res) != 0 {
		t.Errorf("empty MGet = %v, %v", res, err)
	}
	if res, err := c.MPut(nil, nil); err != nil || len(res) != 0 {
		t.Errorf("empty MPut = %v, %v", res, err)
	}
	if _, err := c.MPut([]string{"k"}, nil); err == nil {
		t.Error("mismatched keys/values not rejected")
	}
}

// A BatchInvalidate op in an MPUT response is that key's upstream write
// failure: it must surface as the key's Err (wrapping ErrServer), not
// fail the call.
func TestMPutPartialFailureSurfacesPerKey(t *testing.T) {
	addr := batchFailServer(t, "bad")
	c := New(addr, Options{})
	defer c.Close()
	res, err := c.MPut([]string{"ok", "bad"}, [][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Version != 1 {
		t.Errorf("healthy key = %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrServer) || !strings.Contains(res[1].Err.Error(), `"bad"`) {
		t.Errorf("failed key err = %v, want ErrServer naming the key", res[1].Err)
	}
}

// A batched answer names the keys it answers only by their digest:
// decodeBatch fails one that answers the keys asked in another order,
// answers another key in place of one, or drops one, and labels a good
// one's ops with the caller's own key strings.
func TestDecodeBatchChecksTheKeysAnswered(t *testing.T) {
	answer := func(typ proto.MsgType, keys []string) *proto.Msg {
		m := &proto.Msg{Type: typ}
		for _, k := range keys {
			m.Ops = append(m.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Version: 1})
		}
		frame, err := proto.AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := proto.NewReader(bytes.NewReader(frame)).ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	asked := []string{"a", "b", "c"}
	for _, tc := range []struct {
		name, want string
		keys       []string
	}{
		{"swapped", "out of order", []string{"b", "a", "c"}},
		{"changed", "out of order", []string{"a", "b", "x"}},
		{"duplicated", "out of order", []string{"a", "b", "b"}},
		{"dropped", "answered 2 keys for 3 requested", []string{"a", "c"}},
	} {
		if _, err := DecodeMGet(answer(proto.MsgMGetResp, tc.keys), asked); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s MGET answer decoded to %v, want %q", tc.name, err, tc.want)
		}
		if _, err := DecodeMPut(answer(proto.MsgMPutResp, tc.keys), asked); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s MPUT answer decoded to %v, want %q", tc.name, err, tc.want)
		}
	}
	ops, err := DecodeMGet(answer(proto.MsgMGetResp, asked), asked)
	if err != nil || len(ops) != len(asked) {
		t.Fatalf("DecodeMGet = %d ops, %v", len(ops), err)
	}
	for i, op := range ops {
		if op.Key != asked[i] || op.Version != 1 {
			t.Errorf("op %d = %+v, want labeled %q", i, op, asked[i])
		}
	}
}

// batchFailServer answers MPUTs acknowledging every key except failKey,
// which it marks BatchInvalidate.
func batchFailServer(t *testing.T, failKey string) string {
	t.Helper()
	return protoServer(t, func(m *proto.Msg) *proto.Msg {
		if m.Type != proto.MsgMPut {
			return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "nope"}
		}
		resp := &proto.Msg{Type: proto.MsgMPutResp, Seq: m.Seq}
		for _, op := range m.Ops {
			if op.Key == failKey {
				resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: op.Key})
				continue
			}
			resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: op.Key, Version: 1})
		}
		return resp
	})
}

// protoServer runs a one-message-at-a-time responder for handler-shaped
// tests.
func protoServer(t *testing.T, handle func(*proto.Msg) *proto.Msg) string {
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
			go func() {
				defer conn.Close()
				r, w := proto.NewReader(conn), proto.NewWriter(conn)
				for {
					m, err := r.ReadMsg()
					if err != nil {
						return
					}
					if err := w.WriteMsg(handle(m)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// Scatter/gather equivalence: for any batch (duplicates included), a
// sharded MGet reports exactly what per-key Gets report, in request
// order, and a sharded MPut's versions match subsequent reads.
func TestShardedBatchEquivalenceProperty(t *testing.T) {
	addrs := []string{}
	for i := 0; i < 3; i++ {
		a, _ := echoServer(t)
		addrs = append(addrs, a)
	}
	s, err := NewSharded(addrs, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Preload the even keys of the pk- space through the batch write
	// path itself.
	var pkeys []string
	var pvals [][]byte
	for i := 0; i < 256; i += 2 {
		pkeys = append(pkeys, fmt.Sprintf("pk-%d", i))
		pvals = append(pvals, []byte(fmt.Sprintf("pv-%d", i)))
	}
	for i, r := range s.MPut(pkeys, pvals) {
		if r.Err != nil {
			t.Fatalf("preload MPut[%d]: %v", i, r.Err)
		}
	}

	f := func(idxs []uint8) bool {
		keys := make([]string, len(idxs))
		for i, x := range idxs {
			keys[i] = fmt.Sprintf("pk-%d", x)
		}
		res := s.MGet(keys)
		if len(res) != len(keys) {
			return false
		}
		for i, k := range keys {
			r := res[i]
			if r.Err != nil {
				return false
			}
			v, _, err := s.Get(k)
			if errors.Is(err, ErrNotFound) {
				if r.Found {
					return false
				}
				continue
			}
			if err != nil || !r.Found || !bytes.Equal(r.Value, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A dead shard fails only its own keys; the healthy shards' slices of
// the batch still come back.
func TestShardedBatchPartialShardFailure(t *testing.T) {
	up, _ := echoServer(t)
	down := deadAddr(t)
	s, err := NewSharded([]string{up, down}, 16, Options{
		DialTimeout: 100 * time.Millisecond, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := make([]string, 64)
	vals := make([][]byte, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("pf-%d", i)
		vals[i] = []byte("v")
	}
	res := s.MPut(keys, vals)
	const upShard, downShard = 0, 1
	okN, failN := 0, 0
	for i, r := range res {
		owner := s.Owner(keys[i])
		switch {
		case r.Err == nil:
			okN++
			if owner == downShard {
				t.Errorf("key %s owned by the dead shard succeeded", keys[i])
			}
		default:
			failN++
			if owner == upShard {
				t.Errorf("key %s owned by the live shard failed: %v", keys[i], r.Err)
			}
		}
	}
	if okN == 0 || failN == 0 {
		t.Fatalf("want a mixed outcome across shards, got ok=%d fail=%d", okN, failN)
	}
}
