package borrowedview

import (
	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// Requests: what a connection's read loop hands a function that starts an
// asynchronous client verb is lent until that function returns — the verb
// encodes the request bytes before then, so they may be the reader's own.
// The record that outlives the call keeps a copy, or nothing.

// leakyScattered relays a write the wrong way: the value and the ops it
// keeps to shape its answer are still the reader's buffers, which the next
// frame overwrites.
type leakyScattered struct {
	client.Scatter
	key   string
	value []byte
	ops   []proto.BatchOp
}

func (q *leakyScattered) Finish() {}

func (q *leakyScattered) start(m *proto.Msg, stores *client.Sharded) {
	q.key = m.Key     // key strings are interned: immutable, safe to hold
	q.value = m.Value // want "reader's lent request buffer m.Value stored in a struct field"
	q.ops = m.Ops     // want "reader's lent request buffer m.Ops stored in a struct field"
	stores.MPutAsync(m.Ops, 0, q)
}

// scattered is the blessed shape: the record keeps whom to answer and
// nothing of the request — the sharded client copies what a failover retry
// needs into the embedded Scatter before the verb returns — and a PUT's one
// op is built on the stack.
type scattered struct {
	client.Scatter
	seq uint64
}

func (q *scattered) Finish() {}

func (q *scattered) start(m *proto.Msg, caches, stores *client.Sharded) {
	q.seq = m.Seq
	switch {
	case len(m.Keys) > 0:
		caches.MGetAsync(m.Keys, 0, q)
	case len(m.Ops) > 0:
		stores.MPutAsync(m.Ops, 0, q)
	default:
		one := [1]proto.BatchOp{{Key: m.Key, Value: m.Value}}
		stores.MPutAsync(one[:], 0, q)
	}
}

// leakyLeg replicates a batch the wrong way: the countdown record its
// completion reads later holds the request's ops, values and all.
type leakyLeg struct {
	ops  []proto.BatchOp
	last proto.BatchOp
	sent chan []proto.BatchOp
}

func (l *leakyLeg) Complete(resp *proto.Msg, err error) {}

func (l *leakyLeg) start(m *proto.Msg, peer *client.Client) {
	l.ops = m.Ops // want "reader's lent request buffer m.Ops stored in a struct field"
	ops := m.Ops
	for i := range ops {
		l.ops[i] = ops[i]             // want "reader's lent request buffer ops\\[i\\] stored in a map or slice element"
		l.ops[i].Value = ops[i].Value // want "reader's lent request buffer ops\\[i\\].Value stored in a struct field"
	}
	part := ops[:1]
	l.last = part[0] // want "reader's lent request buffer part\\[0\\] stored in a struct field"
	l.sent <- part   // want "reader's lent request buffer part sent on a channel"
	peer.RestoreAsync(part, nil, 0, 0, l)
}

// leg is the blessed shape: the record keeps keys and versions; the values
// ride only in the frame, and the assigned versions are written into the
// reader's own Msg, which is the connection's to scribble on.
type leg struct {
	ops  []proto.BatchOp
	part []proto.BatchOp // the connection's scratch, emptied before the next read
}

func (l *leg) Complete(resp *proto.Msg, err error) {}

func (l *leg) start(m *proto.Msg, peer *client.Client, version uint64) {
	ops := m.Ops
	l.ops = l.ops[:0]
	for i := range ops {
		ops[i].Version = version + uint64(i)
		l.ops = append(l.ops, proto.BatchOp{Key: ops[i].Key, Version: ops[i].Version})
	}
	ops[0] = proto.BatchOp{Key: m.Key, Value: m.Value, Version: version}
	l.part = append(l.part[:0], ops[0])
	peer.MPutAsync(l.part, 0, l)
	peer.RestoreAsync(ops, nil, 0, 0, l)
	clear(l.part)
}

// notARelay takes a Msg it owns (nothing asynchronous is started on it):
// keeping its slices is its own business.
type notARelay struct{ value []byte }

func (n *notARelay) keep(m *proto.Msg) {
	n.value = m.Value
}
