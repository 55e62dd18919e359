package borrowedview

import (
	"bytes"
	"net"

	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// Completions: the response Msg a client lends to
// Complete(resp *proto.Msg, err error) is valid only until the method
// returns, and belongs to the client.

type keeper struct {
	last  *proto.Msg
	value []byte
	ch    chan *proto.Msg
}

var lastValue []byte

func (k *keeper) Complete(resp *proto.Msg, err error) {
	if err != nil {
		return
	}
	k.last = resp          // want "completion's lent Msg buffer resp stored in a struct field"
	k.value = resp.Value   // want "completion's lent Msg buffer resp.Value stored in a struct field"
	lastValue = resp.Value // want "resp.Value stored in package-level variable lastValue"
	k.ch <- resp           // want "resp sent on a channel"
	resp.Value[0] = 0      // want "write into borrowed completion's lent Msg buffer resp.Value"
	proto.PutMsg(resp)     // want "PutMsg on the completion's lent Msg resp"
}

// relayer is the blessed shape: read the lent Msg in place, copy what
// outlives the call, re-encode the rest before returning.
type relayer struct {
	conn    net.Conn
	version uint64
	value   []byte
}

func (r *relayer) Complete(resp *proto.Msg, err error) {
	if err != nil {
		return
	}
	r.version = resp.Version                     // scalars are copies
	r.value = append([]byte(nil), resp.Value...) // an owned copy
	down := proto.Msg{Seq: 9, Value: resp.Value} // stays inside the call
	if frame, err := proto.EncodeShared(&down, 1); err == nil {
		r.conn.Write(frame.Bytes())
		frame.Release()
	}
}

// hoarder gathers a batch the wrong way: the ops it keeps still point
// into the client's read buffer, which the next frame overwrites.
type hoarder struct {
	ops []proto.BatchOp
}

func (h *hoarder) Complete(resp *proto.Msg, err error) {
	for i := range resp.Ops {
		h.ops[i] = resp.Ops[i]             // want "completion's lent Msg buffer resp.Ops\\[i\\] stored in a map or slice element"
		h.ops[i].Value = resp.Ops[i].Value // want "completion's lent Msg buffer resp.Ops\\[i\\].Value stored in a struct field"
		resp.Ops[i].Value[0] = 0           // want "write into borrowed completion's lent Msg buffer resp.Ops\\[i\\].Value"
	}
	h.ops = resp.Ops[:2] // want "completion's lent Msg buffer resp.Ops\\[:2\\] stored in a struct field"

	// DecodeMGet validates the answer; what it returns is still resp's.
	ops, _ := client.DecodeMGet(resp, nil)
	h.ops = ops                   // want "completion's lent Msg's ops buffer ops stored in a struct field"
	h.ops[0].Value = ops[0].Value // want "completion's lent Msg's ops buffer ops\\[0\\].Value stored in a struct field"
}

// gatherer is the blessed shape for a batch: values copied into a buffer
// of its own, scalars and (immutable) key strings taken as they are.
type gatherer struct {
	ops []proto.BatchOp
	buf []byte
}

func (g *gatherer) Complete(resp *proto.Msg, err error) {
	ops, _ := client.DecodeMGet(resp, nil)
	buf := g.buf[:0]
	for i := range ops {
		at := len(buf)
		buf = append(buf, ops[i].Value...)
		g.ops[i].Key, g.ops[i].Version = ops[i].Key, resp.Ops[i].Version
		g.ops[i].Value = buf[at:len(buf):len(buf)]
	}
	g.buf = buf
}

// leakyFlight settles a miss fill the wrong way: the value it installs and
// answers its waiters with is still the client's read buffer.
type leakyFlight struct {
	key     string
	value   []byte
	version uint64
	err     error
}

func (f *leakyFlight) Complete(resp *proto.Msg, err error) {
	f.value = resp.Value // want "completion's lent Msg buffer resp.Value stored in a struct field"
	value, version, err := client.DecodeGet(resp, f.key)
	f.value, f.version, f.err = value, version, err // want "completion's lent Msg's value buffer value stored in a struct field"
}

// flight is the blessed shape: the one copy a miss must make, taken before
// anything outlives the call.
type flight struct {
	key     string
	value   []byte
	version uint64
	err     error
}

func (f *flight) Complete(resp *proto.Msg, err error) {
	var value []byte
	value, f.version, f.err = client.DecodeGet(resp, f.key)
	f.value = bytes.Clone(value)
}

// notACompletion has the name but not the signature: its Msg is owned.
type notACompletion struct{ last *proto.Msg }

func (n *notACompletion) Complete(resp *proto.Msg) {
	n.last = resp
	proto.PutMsg(resp)
}
