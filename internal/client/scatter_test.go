package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/proto"
)

// scatterNode is a ring node the test controls: it answers an MGET with
// each key echoed back as its value ("ghost" keys excepted: not found), a
// PUT or an MPUT with version 7, a traced request with a span under its own
// name — or everything with MsgErr if refuse is set — but only once release
// is closed (a PING at once), and kill severs everything mid-flight.
type scatterNode struct {
	name    string
	ln      net.Listener
	release chan struct{}
	refuse  bool
	parked  atomic.Int64 // requests read and waiting for release
	traced  atomic.Int64 // of those, the ones that carried a trace ID

	mu    sync.Mutex
	conns []net.Conn
}

func startScatterNode(t *testing.T, name string) *scatterNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &scatterNode{name: name, ln: ln, release: make(chan struct{})}
	t.Cleanup(n.kill)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.mu.Lock()
			n.conns = append(n.conns, conn)
			n.mu.Unlock()
			go n.serve(conn)
		}
	}()
	return n
}

func (n *scatterNode) addr() string { return n.ln.Addr().String() }

func (n *scatterNode) serve(conn net.Conn) {
	var wmu sync.Mutex
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	for {
		m, err := r.ReadMsg()
		if err != nil {
			return
		}
		resp := &proto.Msg{Type: proto.MsgPutResp, Seq: m.Seq, Status: proto.StatusOK, Version: 7}
		switch m.Type {
		case proto.MsgPing: // the test warming its connections up
			wmu.Lock()
			w.WriteMsg(&proto.Msg{Type: proto.MsgPong, Seq: m.Seq}) //nolint:errcheck
			wmu.Unlock()
			continue
		case proto.MsgMGet, proto.MsgMFill:
			resp = &proto.Msg{Type: proto.MsgMGetResp, Seq: m.Seq}
			for _, k := range m.Keys {
				op := proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Version: 1, Value: []byte(k)}
				if strings.HasPrefix(k, "ghost") {
					op = proto.BatchOp{Kind: proto.BatchInvalidate, Key: k}
				}
				resp.Ops = append(resp.Ops, op)
			}
		case proto.MsgMPut:
			resp = &proto.Msg{Type: proto.MsgMPutResp, Seq: m.Seq}
			for _, op := range m.Ops {
				resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: op.Key, Version: 7})
			}
		}
		if m.Trace != nil {
			n.traced.Add(1)
			resp.Trace = &proto.Trace{ID: m.Trace.ID, Spans: []proto.Span{{Node: n.name, Start: 1, Dur: 1}}}
		}
		if n.refuse {
			resp = &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "node: refused"}
		}
		n.parked.Add(1)
		go func() {
			<-n.release
			wmu.Lock()
			defer wmu.Unlock()
			w.WriteMsg(resp) //nolint:errcheck // the test may have killed conn
		}()
	}
}

func (n *scatterNode) kill() {
	n.ln.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		c.Close()
	}
}

// probe is a Scattered that takes a copy of what it is lent, recycles its
// record and then looks at what the record still holds.
type probe struct {
	Scatter
	finishes atomic.Int32
	done     chan struct{}

	ops      []proto.BatchOp
	errs     []error
	spans    []string
	retained string // what Reset left behind, "" if nothing
}

func (p *probe) Finish() {
	p.finishes.Add(1)
	p.ops, p.errs, p.spans = nil, nil, nil
	for i, op := range p.Ops() {
		op.Value = bytes.Clone(op.Value)
		p.ops, p.errs = append(p.ops, op), append(p.errs, p.Err(i))
	}
	rec := proto.StartSpan(&proto.Msg{Trace: &proto.Trace{ID: 1}}, "probe")
	p.AddTraces(rec)
	for _, sp := range rec.Finish(new(proto.Msg)).Trace.Spans {
		p.spans = append(p.spans, sp.Node)
	}
	p.Reset()
	p.retained = p.holds()
	p.done <- struct{}{}
}

// holds names the first thing a recycled record still points at: the
// Sharded, a client, a routing view, a trace, an error, a value buffer.
func (p *probe) holds() string {
	sc := &p.Scatter
	if sc.s != nil || sc.fin != nil || sc.v != nil || sc.retry {
		return "its Sharded, finisher, view or retry mark"
	}
	for _, err := range sc.errs[:cap(sc.errs)] {
		if err != nil {
			return "an error"
		}
	}
	for _, op := range sc.ops[:cap(sc.ops)] {
		if op.Value != nil {
			return "a value (through an answer slot)"
		}
	}
	for i := range sc.legs[:cap(sc.legs)] {
		l := &sc.legs[i]
		if l.owner != nil || len(l.keys)+len(l.idx)+len(l.ops)+len(l.traces) != 0 {
			return fmt.Sprintf("leg %d's owner or share", i)
		}
		for _, tr := range l.traces[:cap(l.traces)] {
			if tr != nil {
				return fmt.Sprintf("leg %d's trace", i)
			}
		}
		for _, op := range l.ops[:cap(l.ops)] {
			if op.Value != nil {
				return fmt.Sprintf("a value buffer (through leg %d's ops)", i)
			}
		}
	}
	return ""
}

func waitScatter(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// However the legs of a scattered request end — in either order, refused,
// cut off, timed out, failed over to a promoted owner, or with Close racing
// them — the request is finished exactly once, with every key's outcome in
// request order under the owner that produced it; the record, recycled, holds
// nothing of the request or of the Sharded it went through (a pooled record
// once kept a closed server alive that way); and only the failed leg's keys
// whose owner moved are sent again, under the request's trace ID.
func TestScatterRecord(t *testing.T) {
	const inFlight, traceID = 4, 9
	verbs := []struct {
		name  string
		one   bool // a single key, owned by node 1
		start func(s *Sharded, keys []string, p *probe)
	}{
		{name: "MGET", start: func(s *Sharded, keys []string, p *probe) { s.MGetAsync(keys, traceID, p) }},
		{name: "MPUT", start: func(s *Sharded, keys []string, p *probe) { s.MPutAsync(putOps(keys), traceID, p) }},
		{name: "PUT", one: true, start: func(s *Sharded, keys []string, p *probe) { s.MPutAsync(putOps(keys), traceID, p) }},
	}
	cases := []struct {
		name    string
		timeout time.Duration
		refuse  bool // node 1 answers MsgErr
		promote bool // a ring refresh replaces both nodes by a third
		settle  func(s *Sharded, n0, n1 *scatterNode)
		failed  string // what the error of node 1's keys mentions; "" = they succeed
		racy    bool   // any key may have succeeded or failed
		late    bool   // node 1's answers are released after the fact
	}{
		{name: "node 0 answers first", settle: func(_ *Sharded, n0, n1 *scatterNode) {
			close(n0.release)
			time.Sleep(20 * time.Millisecond)
			close(n1.release)
		}},
		{name: "node 1 answers first", settle: func(_ *Sharded, n0, n1 *scatterNode) {
			close(n1.release)
			time.Sleep(20 * time.Millisecond)
			close(n0.release)
		}},
		{name: "a leg refused", refuse: true, failed: "node: refused", settle: func(_ *Sharded, n0, n1 *scatterNode) {
			close(n0.release)
			close(n1.release)
		}},
		{name: "a leg's owner dies", failed: "client: c", settle: func(_ *Sharded, n0, n1 *scatterNode) { // "connection broken" or "closed"
			close(n0.release)
			n1.kill()
		}},
		{name: "a leg times out", timeout: 300 * time.Millisecond, failed: "timed out", late: true,
			settle: func(_ *Sharded, n0, _ *scatterNode) { close(n0.release) }},
		{name: "a leg fails over", promote: true, settle: func(_ *Sharded, n0, n1 *scatterNode) {
			close(n0.release)
			n1.kill()
		}},
		{name: "Close races the answers", racy: true, settle: func(s *Sharded, n0, n1 *scatterNode) {
			go s.Close()
			close(n0.release)
			close(n1.release)
		}},
	}
	var pool sync.Pool // the probes go round, as a server's records do
	for _, tc := range cases {
		for _, verb := range verbs {
			t.Run(tc.name+"/"+verb.name, func(t *testing.T) {
				n0, n1, n2 := startScatterNode(t, "node-0"), startScatterNode(t, "node-1"), startScatterNode(t, "node-2")
				n1.refuse = tc.refuse
				close(n2.release)
				s, err := NewSharded([]string{n0.addr(), n1.addr()}, 16, Options{RequestTimeout: tc.timeout})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if errs := s.Ping(); errs != nil { // connections up: the legs start on the readers' path
					t.Fatal(errs)
				}
				if tc.promote {
					s.SetRefresher(func() (RingInfo, bool) {
						return RingInfo{Epoch: 2, Nodes: []string{n2.addr()}, VirtualNodes: 16}, true
					})
				}
				// Four keys a node, interleaved, and one no node has.
				var keys []string
				per := [2]int{}
				for i := 0; per[0] < 4 || per[1] < 4; i++ {
					k := fmt.Sprintf("sk-%d", i)
					if o := s.Owner(k); per[o] < 4 {
						keys, per[o] = append(keys, k), per[o]+1
					}
				}
				keys = append(keys, "ghost-0")
				asked := [2]int64{inFlight, inFlight}
				if verb.one {
					for _, k := range keys {
						if s.Owner(k) == 1 {
							keys = []string{k}
							break
						}
					}
					asked[0] = 0
				}
				owner := make([]int, len(keys)) // before any swap
				for i, k := range keys {
					owner[i] = s.Owner(k)
				}

				probes := make([]*probe, inFlight)
				for i := range probes {
					p, _ := pool.Get().(*probe)
					if p == nil {
						p = &probe{done: make(chan struct{}, 1)}
					}
					p.finishes.Store(0)
					probes[i] = p
					verb.start(s, keys, p)
				}
				waitScatter(t, "the legs to reach both nodes", func() bool {
					return n0.parked.Load() == asked[0] && n1.parked.Load() == asked[1]
				})
				if n0.traced.Load() != asked[0] || n1.traced.Load() != asked[1] {
					t.Errorf("%d and %d legs carried the trace ID, want %d and %d", n0.traced.Load(), n1.traced.Load(), asked[0], asked[1])
				}
				tc.settle(s, n0, n1)

				moved := 0 // node 1's keys, per request
				for _, p := range probes {
					select {
					case <-p.done:
					case <-time.After(5 * time.Second):
						t.Fatal("a request was never finished")
					}
					if p.retained != "" {
						t.Errorf("the recycled record still holds %s", p.retained)
					}
					if len(p.ops) != len(keys) {
						t.Fatalf("finished with %d ops for %d keys", len(p.ops), len(keys))
					}
					moved = 0
					for i, k := range keys {
						op, err := p.ops[i], p.errs[i]
						if op.Key != k {
							t.Errorf("slot %d holds %q, want %q", i, op.Key, k)
						}
						if owner[i] == 1 {
							moved++
						}
						ok := op.Kind == proto.BatchUpdate && (verb.name != "MGET" || string(op.Value) == k) && (verb.name == "MGET" || op.Version == 7)
						if verb.name == "MGET" && strings.HasPrefix(k, "ghost") {
							ok = op.Kind == proto.BatchInvalidate
						}
						switch {
						case tc.racy && err != nil, err == nil && ok && (owner[i] == 0 || tc.failed == ""):
						case err == nil:
							t.Errorf("slot %d (%q, node %d) = %+v with no error", i, k, owner[i], op)
						default:
							var se ShardError
							if owner[i] == 0 || !errors.As(err, &se) || se.Addr != n1.addr() || !strings.Contains(err.Error(), tc.failed) ||
								op.Kind != proto.BatchInvalidate || op.Value != nil || errors.Is(err, ErrServer) != tc.refuse {
								t.Errorf("slot %d (%q, node %d) = %+v, %v; want node 1's keys, and only those, failed by %q", i, k, owner[i], op, err, tc.failed)
							}
						}
					}
					if tc.promote {
						want := "node-0 node-2 probe" // ring order, the failed leg's retry in its place
						if verb.one {
							want = "node-2 probe"
						}
						if got := strings.Join(p.spans, " "); got != want {
							t.Errorf("hops %q, want %q", got, want)
						}
					}
				}
				if tc.late {
					close(n1.release) // the timed-out legs' answers arrive now
				}
				time.Sleep(50 * time.Millisecond)
				for _, p := range probes {
					if n := p.finishes.Load(); n != 1 {
						t.Errorf("a request was finished %d times", n)
					}
					pool.Put(p)
				}
				wantFailovers, wantRetries := uint64(0), int64(0)
				if tc.promote {
					wantFailovers, wantRetries = uint64(inFlight*moved), inFlight
				}
				if got := s.Failovers(); got != wantFailovers {
					t.Errorf("failovers = %d, want %d", got, wantFailovers)
				}
				// Only what moved is sent again, once, and traced as the request was.
				if n2.parked.Load() != wantRetries || n2.traced.Load() != wantRetries || n0.parked.Load() != asked[0] {
					t.Errorf("node 2 was sent %d requests (%d traced) and node 0 %d; want %d, %d and %d",
						n2.parked.Load(), n2.traced.Load(), n0.parked.Load(), wantRetries, wantRetries, asked[0])
				}
			})
		}
	}
}

func putOps(keys []string) []proto.BatchOp {
	ops := make([]proto.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: []byte("v-" + k)}
	}
	return ops
}
