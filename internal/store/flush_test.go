package store

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/proto"
)

// alwaysUpdate makes every decision an update: each push then carries the
// version the store assigned, and no invalidate is deduplicated away.
var alwaysUpdate = core.Config{Costs: costmodel.Costs{Cm: math.Inf(1), Ci: 1, Cu: 1}}

// pushed is one update as a subscriber received it.
type pushed struct {
	at      time.Time
	version uint64
}

// pushLog is what one subscriber has received so far.
type pushLog struct {
	mu        sync.Mutex
	byKey     map[string][]pushed
	epoch     uint64 // of the last frame
	gaps      int    // frames whose epoch was not the last one's + 1
	heartbeat int    // frames without ops
}

// subscribeLog subscribes to the store at addr and logs every frame pushed
// until the test ends.
func subscribeLog(t *testing.T, addr, name string) *pushLog {
	t.Helper()
	rc := dialRaw(t, addr)
	rc.send(&proto.Msg{Type: proto.MsgSubscribe, Seq: 1, Key: name})
	sub := rc.read(5 * time.Second)
	if sub == nil || sub.Type != proto.MsgSubResp {
		t.Fatalf("subscribe %s: %+v", name, sub)
	}
	rc.conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	l := &pushLog{byKey: map[string][]pushed{}, epoch: sub.Epoch}
	go func() {
		for {
			m, err := rc.r.ReadMsg()
			if err != nil {
				return // the test's cleanup closed the connection
			}
			now := time.Now()
			l.mu.Lock()
			if m.Epoch != l.epoch+1 {
				l.gaps++
			}
			l.epoch = m.Epoch
			if len(m.Ops) == 0 {
				l.heartbeat++
			}
			for _, op := range m.Ops {
				l.byKey[op.Key] = append(l.byKey[op.Key], pushed{now, op.Version})
			}
			l.mu.Unlock()
		}
	}()
	return l
}

func (l *pushLog) pushes(key string) []pushed {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]pushed(nil), l.byKey[key]...)
}

// seen waits until the subscriber holds version of key (or a later one)
// and returns when that push arrived.
func (l *pushLog) seen(t *testing.T, key string, version uint64) time.Time {
	t.Helper()
	var at time.Time
	waitUntil(t, fmt.Sprintf("%s version %d to be pushed", key, version), func() bool {
		for _, p := range l.pushes(key) {
			if p.version >= version {
				at = p.at
				return true
			}
		}
		return false
	})
	return at
}

// TestLeadingEdgeFlush runs the live flusher against the wall clock and two
// subscribers, and judges it by the versions the store assigned: a write to
// a quiet key is pushed within a slice or two, a re-write inside that
// key's cooldown — or a write to a key nobody reads — within T of being
// made, and a key written two hundred times a second once per T.
func TestLeadingEdgeFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five seconds of wall clock")
	}
	const (
		T     = 400 * time.Millisecond
		slack = 150 * time.Millisecond // scheduling, under -race on a shared runner
	)
	_, addr := startStore(t, Config{T: T, Engine: alwaysUpdate})
	c := client.New(addr, client.Options{})
	defer c.Close()
	logs := []*pushLog{subscribeLog(t, addr, "cache-a"), subscribeLog(t, addr, "cache-b")}
	began := time.Now()

	// Nobody has read "bulk", so no cache can hold it: it is held for the
	// trailing edge. "quiet" and "hot" have a reader.
	put := func(key, value string) (uint64, time.Time) {
		t.Helper()
		v, err := c.Put(key, []byte(value))
		if err != nil {
			t.Fatal(err)
		}
		return v, time.Now()
	}
	bulk, bulkAcked := put("bulk", "load")
	for _, key := range []string{"quiet", "hot"} {
		put(key, "zero")
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range logs {
		if lag := l.seen(t, "bulk", bulk).Sub(bulkAcked); lag < T/2 || lag > T+slack {
			t.Errorf("subscriber %d: a write to a key nobody reads was pushed after %v, want between T/2 and T = %v", i, lag, T)
		}
	}
	time.Sleep(time.Until(began.Add(2*T + slack))) // every cooldown begun so far is over

	v1, acked1 := put("quiet", "one")
	v2, acked2 := put("quiet", "two") // at once: inside the cooldown v1's push starts, or riding that push
	for i, l := range logs {
		first := l.seen(t, "quiet", v1)
		if lag := first.Sub(acked1); lag >= T/4 {
			t.Errorf("subscriber %d: a write to a quiet key was pushed after %v, want under T/4 = %v", i, lag, T/4)
		}
		if lag := l.seen(t, "quiet", v2).Sub(acked2); lag > T+slack {
			t.Errorf("subscriber %d: a re-write was pushed after %v, bound is T = %v", i, lag, T)
		}
	}
	// A re-write that provably lands inside the cooldown: it must wait
	// the cooldown out, not ride the next slice.
	time.Sleep(T + slack)
	put("quiet", "three")
	time.Sleep(T / 8)
	v4, acked4 := put("quiet", "four")
	for i, l := range logs {
		lag := l.seen(t, "quiet", v4).Sub(acked4)
		if lag < T/2 || lag > T+slack {
			t.Errorf("subscriber %d: a re-write inside the cooldown was pushed after %v, want between T/2 and T = %v", i, lag, T)
		}
	}

	// A hot key: written every 5 ms for 2 s, pushed once per T.
	const hotFor = 2 * time.Second
	var (
		last      uint64
		lastAcked time.Time
	)
	hotBegan, before := time.Now(), len(logs[0].pushes("hot"))
	for tick := time.NewTicker(5 * time.Millisecond); time.Since(hotBegan) < hotFor; <-tick.C {
		last, lastAcked = put("hot", "v")
	}
	budget := int(math.Ceil(float64(time.Since(hotBegan))/float64(T))) + 1
	for i, l := range logs {
		if lag := l.seen(t, "hot", last).Sub(lastAcked); lag > T+slack {
			t.Errorf("subscriber %d: the hot key's last write was pushed after %v, bound is T = %v", i, lag, T)
		}
		ps := l.pushes("hot")[before:]
		if len(ps) > budget || len(ps) < budget-3 {
			t.Errorf("subscriber %d: %d pushes of a key written for %v, want %d to %d (one per T)",
				i, len(ps), time.Since(hotBegan).Round(time.Millisecond), budget-3, budget)
		}
		for j := 1; j < len(ps); j++ {
			if ps[j].version <= ps[j-1].version {
				t.Errorf("subscriber %d: hot key pushed version %d after %d", i, ps[j].version, ps[j-1].version)
			}
		}
	}

	// An idle store heartbeats once per T, and only then: the caches take
	// 3·T of silence for a dead channel.
	time.Sleep(3 * T)
	periods := int(time.Since(began) / T)
	for i, l := range logs {
		l.mu.Lock()
		if l.gaps != 0 {
			t.Errorf("subscriber %d: %d epoch gaps", i, l.gaps)
		}
		if l.heartbeat < 2 || l.heartbeat > periods {
			t.Errorf("subscriber %d: %d heartbeats in %d periods, of which the last 3 idle", i, l.heartbeat, periods)
		}
		l.mu.Unlock()
	}
}

// TestFlushAllocationPin: the flusher runs core.Slices times per T, so a
// slice with nothing due must cost nothing — no epoch, no frame, no
// allocation — and a slice that pushes k keys to two subscribers a constant.
func TestFlushAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled frames")
	}
	s, addr := startStore(t, Config{Engine: alwaysUpdate}) // T of an hour: only this test flushes
	var received atomic.Int64
	for i := 0; i < 2; i++ {
		rc := dialRaw(t, addr)
		rc.send(&proto.Msg{Type: proto.MsgSubscribe, Seq: 1, Key: fmt.Sprint("cache-", i)})
		go func() { // count the frames, keeping nothing of them
			var m proto.Msg
			for rc.r.ReadMsgInto(&m) == nil {
				if m.Type == proto.MsgBatch {
					received.Add(1)
				}
			}
		}()
	}
	waitUntil(t, "both subscriptions", func() bool { return s.Metrics().StatsMap()["subscribers"] == 2 })
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprint("pinned-", i)
		s.auth.Put(keys[i], make([]byte, 16), time.Now())
		s.engine.ObserveRead(keys[i]) // read keys go out at the first slice after a write
	}
	var n uint64
	delivered := func() { // a frame goes back to its pool once every subscriber's writer is done with it
		if want := 2 * int64(s.Epoch()); received.Load() < want {
			for received.Load() < want {
				time.Sleep(50 * time.Microsecond) // not a spin: AllocsPerRun leaves one P
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	period := func() { // one T: the keys go out at its first slice, and their cooldown ends at its last
		for _, k := range keys {
			s.engine.ObserveWriteAt(k, 1)
		}
		for i := 0; i < core.Slices; i++ {
			n++
			s.flushOnce(n, false)
		}
		delivered()
	}
	for i := 0; i < 2*core.Slices; i++ {
		period() // grow the wheel, the scratch slices and the frame pool
	}
	before := s.Metrics().StatsMap()
	allocs := testing.AllocsPerRun(100, period)
	after := s.Metrics().StatsMap()
	if got := after["updates_sent"] - before["updates_sent"]; got != 101*uint64(len(keys)) {
		t.Fatalf("%d updates sent over 101 periods of %d keys", got, len(keys))
	}
	if got := after["epoch"] - before["epoch"]; got != 101 {
		t.Errorf("%d frames over 101 periods, want one each: the idle slices must send nothing", got)
	}
	if allocs > 2 {
		t.Errorf("a T that pushes %d keys to two subscribers allocates %.1f objects, budget is 2", len(keys), allocs)
	}
	// Nothing dirty, nothing cooling: 15 slices in 16 do not even take
	// s.mu, and the 16th sends the empty heartbeat from the pooled frame.
	if allocs := testing.AllocsPerRun(20*core.Slices, func() { n++; s.flushOnce(n, false); delivered() }); allocs != 0 {
		t.Errorf("an idle slice allocates %.2f objects, want 0", allocs)
	}
}
