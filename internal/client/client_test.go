package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"freshcache/internal/proto"
)

// echoServer is a minimal store-like responder for client tests.
func echoServer(t *testing.T) (addr string, requests *sync.Map) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	requests = &sync.Map{}
	var n int64
	var mu sync.Mutex
	store := map[string][]byte{} // shared across conns: mux clients spread verbs
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
					mu.Lock()
					n++
					mu.Unlock()
					requests.Store(m.Seq, m.Type)
					var resp *proto.Msg
					switch m.Type {
					case proto.MsgPut:
						mu.Lock()
						store[m.Key] = append([]byte(nil), m.Value...)
						mu.Unlock()
						resp = &proto.Msg{Type: proto.MsgPutResp, Seq: m.Seq, Status: proto.StatusOK, Version: 1}
					case proto.MsgGet, proto.MsgFill:
						mu.Lock()
						v, ok := store[m.Key]
						mu.Unlock()
						if ok {
							resp = &proto.Msg{Type: proto.MsgGetResp, Seq: m.Seq, Status: proto.StatusOK, Version: 1, Value: v}
						} else {
							resp = &proto.Msg{Type: proto.MsgGetResp, Seq: m.Seq, Status: proto.StatusNotFound}
						}
					case proto.MsgPing:
						resp = &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
					case proto.MsgStats:
						resp = &proto.Msg{Type: proto.MsgStatsResp, Seq: m.Seq, Stats: map[string]uint64{"x": 1}}
					case proto.MsgReadReport:
						resp = &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
					case proto.MsgMGet, proto.MsgMFill:
						resp = &proto.Msg{Type: proto.MsgMGetResp, Seq: m.Seq}
						mu.Lock()
						for _, k := range m.Keys {
							if v, ok := store[k]; ok {
								resp.Ops = append(resp.Ops, proto.BatchOp{
									Kind: proto.BatchUpdate, Key: k, Version: 1, Value: v})
							} else {
								resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: k})
							}
						}
						mu.Unlock()
					case proto.MsgMPut:
						resp = &proto.Msg{Type: proto.MsgMPutResp, Seq: m.Seq}
						mu.Lock()
						for _, op := range m.Ops {
							store[op.Key] = append([]byte(nil), op.Value...)
							resp.Ops = append(resp.Ops, proto.BatchOp{
								Kind: proto.BatchUpdate, Key: op.Key, Version: 1})
						}
						mu.Unlock()
					default:
						resp = &proto.Msg{Type: proto.MsgErr, Seq: m.Seq, Err: "nope"}
					}
					if err := w.WriteMsg(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), requests
}

func TestBasicVerbs(t *testing.T) {
	addr, _ := echoServer(t)
	c := New(addr, Options{})
	defer c.Close()

	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ver, err := c.Get("k")
	if err != nil || string(v) != "v" || ver != 1 {
		t.Fatalf("Get = %q v%d err=%v", v, ver, err)
	}
	if _, _, err := c.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("absent: %v", err)
	}
	if _, _, err := c.Fill("k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Stats(); err != nil || st["x"] != 1 {
		t.Fatalf("Stats = %v err=%v", st, err)
	}
	if err := c.ReadReport([]proto.ReadReport{{Key: "k", Count: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadReport(nil); err != nil {
		t.Errorf("empty report should be a no-op, got %v", err)
	}
	if c.Addr() != addr {
		t.Errorf("Addr = %q", c.Addr())
	}
}

func TestValueCopiedOutOfFramingBuffer(t *testing.T) {
	addr, _ := echoServer(t)
	c := New(addr, Options{MaxConns: 1})
	defer c.Close()
	c.Put("a", []byte("aaaaaaaa")) //nolint:errcheck
	c.Put("b", []byte("bbbbbbbb")) //nolint:errcheck
	va, _, err := c.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	// The same connection reads "b" next; va must be unaffected.
	if _, _, err := c.Get("b"); err != nil {
		t.Fatal(err)
	}
	if string(va) != "aaaaaaaa" {
		t.Errorf("value aliased framing buffer: %q", va)
	}
}

func TestClosedClient(t *testing.T) {
	addr, _ := echoServer(t)
	c := New(addr, Options{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	// A port that nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := New(addr, Options{DialTimeout: 200 * time.Millisecond})
	defer c.Close()
	if err := c.Ping(); err == nil {
		t.Error("dial to dead address succeeded")
	}
}

func TestRequestTimeout(t *testing.T) {
	// A listener that accepts and never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) //nolint:errcheck
		}
	}()
	c := New(ln.Addr().String(), Options{RequestTimeout: 100 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("ping to black-hole server succeeded")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("timeout took %v", d)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	addr, _ := echoServer(t)
	c := New(addr, Options{MaxConns: 4})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k-%d-%d", g, i%10)
				switch i % 3 {
				case 0:
					if _, err := c.Put(key, []byte("v")); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, err := c.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
				default:
					if err := c.Ping(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
