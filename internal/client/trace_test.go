package client

import (
	"sync/atomic"
	"testing"

	"freshcache/internal/proto"
)

// TestTraceIDZeroIsUntraced drives every verb's one body with trace ID 0
// and with a real ID against a scripted server that records what the
// request frame carried: 0 sends no trace block and returns a nil trace,
// a nonzero ID rides on the request and the response's spans come back.
func TestTraceIDZeroIsUntraced(t *testing.T) {
	var sawTrace atomic.Uint64 // 0: the last request carried no trace block
	stubSpan := proto.Span{Node: "stub", Start: 11, Dur: 22}
	addr := protoServer(t, func(m *proto.Msg) *proto.Msg {
		resp := &proto.Msg{Seq: m.Seq}
		switch m.Type {
		case proto.MsgGet, proto.MsgFill:
			resp.Type, resp.Status, resp.Version, resp.Value = proto.MsgGetResp, proto.StatusOK, 1, []byte("v")
		case proto.MsgPut:
			resp.Type, resp.Status, resp.Version = proto.MsgPutResp, proto.StatusOK, 1
		case proto.MsgMGet, proto.MsgMFill:
			resp.Type = proto.MsgMGetResp
			for _, k := range m.Keys {
				resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Version: 1, Value: []byte("v")})
			}
		case proto.MsgMPut:
			resp.Type = proto.MsgMPutResp
			for _, op := range m.Ops {
				resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: op.Key, Version: 1})
			}
		}
		sawTrace.Store(0)
		if m.Trace != nil {
			sawTrace.Store(m.Trace.ID)
			resp.Trace = &proto.Trace{ID: m.Trace.ID, Spans: []proto.Span{stubSpan}}
		}
		return resp
	})
	c := New(addr, Options{})
	defer c.Close()

	keys, vals := []string{"a", "b"}, [][]byte{[]byte("1"), []byte("2")}
	verbs := []struct {
		name string
		call func(traceID uint64) (*proto.Trace, error)
	}{
		{"Get", func(id uint64) (*proto.Trace, error) {
			_, _, tr, err := c.get(proto.MsgGet, "k", id)
			return tr, err
		}},
		{"Fill", func(id uint64) (*proto.Trace, error) {
			_, _, tr, err := c.get(proto.MsgFill, "k", id)
			return tr, err
		}},
		{"Put", func(id uint64) (*proto.Trace, error) {
			_, tr, err := c.put("k", []byte("v"), id)
			return tr, err
		}},
		{"MGet", func(id uint64) (*proto.Trace, error) {
			_, tr, err := c.mget(proto.MsgMGet, keys, id)
			return tr, err
		}},
		{"MFill", func(id uint64) (*proto.Trace, error) {
			_, tr, err := c.mget(proto.MsgMFill, keys, id)
			return tr, err
		}},
		{"MPut", func(id uint64) (*proto.Trace, error) {
			_, tr, err := c.mput(keys, vals, id)
			return tr, err
		}},
	}
	for _, v := range verbs {
		t.Run(v.name, func(t *testing.T) {
			tr, err := v.call(0)
			if err != nil {
				t.Fatal(err)
			}
			if got := sawTrace.Load(); got != 0 {
				t.Errorf("trace ID 0 put a trace block (ID %d) on the wire", got)
			}
			if tr != nil {
				t.Errorf("trace ID 0 returned a trace: %+v", tr)
			}

			const id = 0xfeed
			tr, err = v.call(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := sawTrace.Load(); got != id {
				t.Errorf("request carried trace ID %#x, want %#x", got, id)
			}
			if tr == nil || tr.ID != id || len(tr.Spans) != 1 || tr.Spans[0] != stubSpan {
				t.Errorf("returned trace = %+v, want ID %#x with the server's span", tr, id)
			}
		})
	}

	// The untraced Get shares its body with GetTraced; it must not pay
	// for that. The count is process-wide, so it includes this test's
	// server; it measured 4 with the separate untraced body this one
	// replaced, against the same server.
	const parentGetAllocs = 4
	if raceEnabled {
		return // sync.Pool drops puts at random under the race detector
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
	}); n > parentGetAllocs {
		t.Errorf("Get allocates %.1f per call, more than the parent's %d", n, parentGetAllocs)
	}
}
