package borrowedview

import (
	"net"

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

// notACompletion has the name but not the signature: its Msg is owned.
type notACompletion struct{ last *proto.Msg }

func (n *notACompletion) Complete(resp *proto.Msg) {
	n.last = resp
	proto.PutMsg(resp)
}
