package store

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
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
	mu     sync.Mutex
	byKey  map[string][]pushed
	epoch  uint64      // of the last frame
	gaps   int         // frames whose epoch was not the last one's + 1
	frames int         // frames with ops
	beats  []time.Time // when each frame without ops arrived
	// stalled, while set, keeps the subscriber from reading its connection.
	stalled atomic.Bool
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
			for l.stalled.Load() {
				time.Sleep(time.Millisecond)
			}
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
				l.beats = append(l.beats, now)
			} else {
				l.frames++
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
// a quiet key is pushed at once, a re-write inside that key's cooldown — or
// a write to a key nobody reads — within T of being made, and a key written
// two hundred times a second once per T.
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
		if lag := first.Sub(acked1); lag >= T/16 {
			t.Errorf("subscriber %d: a write to a quiet key was pushed after %v, want under T/16 = %v", i, lag, T/16)
		}
		if lag := l.seen(t, "quiet", v2).Sub(acked2); lag > T+slack {
			t.Errorf("subscriber %d: a re-write was pushed after %v, bound is T = %v", i, lag, T)
		}
	}
	// A re-write that provably lands inside the cooldown: it must wait
	// the cooldown out, not go out at once.
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
		if len(l.beats) < 2 || len(l.beats) > periods {
			t.Errorf("subscriber %d: %d heartbeats in %d periods, of which the last 3 idle", i, len(l.beats), periods)
		}
		l.mu.Unlock()
	}
}

// readKeys makes n keys the store holds and has seen a read of, with no
// write of them observed: the next write to any of them is due at once.
func readKeys(t *testing.T, s *Server, prefix string, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%03d", prefix, i)
		s.auth.Put(keys[i], []byte("zero"), time.Now())
		s.engine.ObserveRead(keys[i])
	}
	return keys
}

// TestFlushWriteDriven holds the flusher's rules against the wall clock at
// T = 400 ms: a due write is on the wire at once, writes inside one floor
// share a frame, an idle store wakes once per T — and at every boundary
// again from its first held key on — and a subscriber that stalls is sent
// frames at slice boundaries only.
func TestFlushWriteDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven seconds of wall clock")
	}
	const T = 400 * time.Millisecond

	t.Run("quiet keys go out at once", func(t *testing.T) {
		s, addr := startStore(t, Config{T: T, Engine: alwaysUpdate})
		c := client.New(addr, client.Options{})
		defer c.Close()
		l := subscribeLog(t, addr, "cache-a")
		lags := make([]time.Duration, 0, 20)
		for _, key := range readKeys(t, s, "quiet", cap(lags)) {
			sent := time.Now()
			v, err := c.Put(key, []byte("one"))
			if err != nil {
				t.Fatal(err)
			}
			lags = append(lags, l.seen(t, key, v).Sub(sent)) // from before the PUT: never negative
			time.Sleep(time.Until(sent.Add(30 * time.Millisecond)))
		}
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		if median := lags[len(lags)/2]; median >= T/64 {
			t.Errorf("median push lag of %d quiet keys is %v, want under T/64 = %v (all: %v)", len(lags), median, T/64, lags)
		}
	})

	t.Run("writes inside one floor share a frame", func(t *testing.T) {
		s, addr := startStore(t, Config{T: T, Engine: alwaysUpdate})
		l := subscribeLog(t, addr, "cache-a")
		for attempt := 0; ; attempt++ {
			keys := readKeys(t, s, fmt.Sprint("burst", attempt), 40)
			time.Sleep(5 * time.Millisecond) // past the floor of whatever went before
			l.mu.Lock()
			before := l.frames
			l.mu.Unlock()
			began := time.Now()
			for _, k := range keys {
				if s.engine.ObserveWriteAt(k, began.UnixNano()) {
					s.kickFlusher()
				}
			}
			took := time.Since(began)
			for _, k := range keys {
				l.seen(t, k, 1)
			}
			if took >= time.Millisecond && attempt < 5 {
				continue // descheduled mid-burst: the premise did not hold
			}
			l.mu.Lock()
			frames := l.frames - before
			l.mu.Unlock()
			if frames > 2 {
				t.Errorf("%d keys written within %v left as %d frames, want at most 2", len(keys), took, frames)
			}
			return
		}
	})

	t.Run("an idle store wakes once per T", func(t *testing.T) {
		s, addr := startStore(t, Config{T: T, Engine: alwaysUpdate})
		l := subscribeLog(t, addr, "cache-a")
		beats := func() []time.Time {
			l.mu.Lock()
			defer l.mu.Unlock()
			return append([]time.Time(nil), l.beats...)
		}
		waitUntil(t, "the first heartbeat", func() bool { return len(beats()) > 0 })
		flushes := s.Metrics().StatsMap()["engine_flushes"]
		time.Sleep(3*T + T/2)
		if got := s.Metrics().StatsMap()["engine_flushes"] - flushes; got < 3 || got > 4 {
			t.Errorf("%d flushes over three idle T, want 3 or 4", got)
		}
		bs := beats()
		if len(bs) != 4 {
			t.Fatalf("%d heartbeats over three idle T and the one before, want 4", len(bs))
		}
		for i := 1; i < len(bs); i++ {
			if gap := bs[i].Sub(bs[i-1]); gap < T-T/8 || gap > T+T/4 {
				t.Errorf("heartbeats %d and %d arrived %v apart, want T = %v", i-1, i, gap, T)
			}
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.gaps != 0 || l.frames != 0 {
			t.Errorf("%d epoch gaps and %d frames with ops on an idle store", l.gaps, l.frames)
		}
	})

	t.Run("a stalled subscriber is not dropped", func(t *testing.T) {
		s, addr := startStore(t, Config{T: T, Engine: alwaysUpdate})
		l := subscribeLog(t, addr, "cache-a")
		// 2 000 distinct read keys a second for T, 16 KiB each: more than the
		// kernel will buffer for a subscriber that has stopped reading, so
		// its queue backs up. At a frame per millisecond it would overflow
		// within a quarter of T.
		keys := readKeys(t, s, "stall", 800)
		value := make([]byte, 16<<10)
		l.stalled.Store(true)
		began := time.Now()
		for i, k := range keys {
			s.auth.Put(k, value, time.Now())
			if s.engine.ObserveWriteAt(k, time.Now().UnixNano()) {
				s.kickFlusher()
			}
			time.Sleep(time.Until(began.Add(time.Duration(i+1) * T / time.Duration(len(keys)))))
		}
		l.stalled.Store(false)
		for _, k := range keys {
			l.seen(t, k, 1)
		}
		if got := s.c.SubscribersDropped.Value(); got != 0 {
			t.Errorf("%d subscribers dropped", got)
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.gaps != 0 {
			t.Errorf("%d epoch gaps after the stall", l.gaps)
		}
		if l.frames >= len(keys)/4 {
			t.Errorf("%d frames for %d keys: the subscriber never backed up, the test proved nothing", l.frames, len(keys))
		}
	})

	t.Run("a bulk load into an idle store is spread over its boundaries", func(t *testing.T) {
		s, addr := startStore(t, Config{T: T, Engine: alwaysUpdate})
		l := subscribeLog(t, addr, "cache-a")
		waitUntil(t, "the first heartbeat: the flusher asleep until the next", func() bool {
			l.mu.Lock()
			defer l.mu.Unlock()
			return len(l.beats) > 0
		})
		// Keys nobody has read, written for T/2: none is due before the
		// boundary T after the flush before it, and had the first not woken
		// the flusher that flush would be the one heartbeat for all of them.
		keys := make([]string, 400)
		began := time.Now()
		for i := range keys {
			keys[i] = fmt.Sprintf("bulk-%03d", i)
			s.auth.Put(keys[i], []byte("v"), time.Now())
			if s.engine.ObserveWriteAt(keys[i], time.Now().UnixNano()) {
				s.kickFlusher()
			}
			time.Sleep(time.Until(began.Add(time.Duration(i+1) * T / 2 / time.Duration(len(keys)))))
		}
		for _, k := range keys {
			if lag := l.seen(t, k, 1).Sub(began); lag < T/2 {
				t.Fatalf("%s, which nobody has read, was pushed after %v: it should have been held", k, lag)
			}
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.frames < 4 {
			t.Errorf("%d keys written over T/2 left as %d frames, want one per slice boundary they span (8)", len(keys), l.frames)
		}
	})

	t.Run("a forwarded key is invalidated at once", func(t *testing.T) {
		_, mine := startStore(t, Config{ShardID: "s0", T: T})
		_, theirs := startStore(t, Config{ShardID: "s1", T: T})
		ri := client.RingInfo{Epoch: 1, Nodes: []string{mine, theirs}, Replicas: 1}
		for _, a := range ri.Nodes {
			if err := dial(t, a).Release(ri, a); err != nil {
				t.Fatal(err)
			}
		}
		r, err := ring.New(ri.Nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		l := subscribeLog(t, mine, "old-epoch-cache")
		time.Sleep(T / 4) // no floor, no boundary owed: the flusher sleeps until its heartbeat
		key := keysWhere("moved", 1, ownedBy(r, theirs))[0]
		sent := time.Now()
		if _, err := dial(t, mine).Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if lag := l.seen(t, key, 0).Sub(sent); lag >= T/16 {
			t.Errorf("a forwarded key's invalidate was pushed after %v, want under T/16 = %v", lag, T/16)
		}
	})
}

// TestFlushAllocationPin: the flusher wakes per write, so a kicked flush
// that pushes one key to two subscribers must allocate nothing — the frame,
// the scratch and the wheel are all reused — and an idle T must cost one
// empty frame and no allocation.
func TestFlushAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled frames")
	}
	const T = 40 * time.Millisecond
	s, addr := startStore(t, Config{T: T, Engine: alwaysUpdate})
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
	// A frame goes back to its pool once every subscriber's writer is done
	// with it.
	delivered := func() {
		for received.Load() < 2*int64(s.Epoch()) {
			time.Sleep(50 * time.Microsecond) // not a spin: AllocsPerRun leaves one P
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Each run writes the next of enough keys that one comes round again
	// only after its cooldown: every write is due, kicks the flusher, and
	// leaves as its own frame.
	keys, next := readKeys(t, s, "pinned", 64), 0
	kicked := func() {
		k := keys[next%len(keys)]
		next++
		if !s.engine.ObserveWriteAt(k, 1) {
			t.Fatalf("write %d of %q is not due", next, k)
		}
		s.kickFlusher()
		time.Sleep(2 * T / time.Duration(len(keys)))
		delivered()
	}
	for i := 0; i < 4*len(keys); i++ {
		kicked() // grow the wheel, the scratch slices and the frame pool
	}
	before := s.Metrics().StatsMap()
	allocs := testing.AllocsPerRun(2*len(keys), kicked)
	after := s.Metrics().StatsMap()
	if got := after["pushes_leading"] - before["pushes_leading"]; got != uint64(2*len(keys)+1) {
		t.Fatalf("%d keys pushed at once over %d kicked writes", got, 2*len(keys)+1)
	}
	if allocs != 0 {
		t.Errorf("a kicked one-key flush to two subscribers allocates %.2f objects, want 0", allocs)
	}

	time.Sleep(2 * T) // the last cooldowns end: nothing dirty, nothing cooling
	before = s.Metrics().StatsMap()
	allocs = testing.AllocsPerRun(9, func() { time.Sleep(T); delivered() })
	after = s.Metrics().StatsMap()
	if got := after["epoch"] - before["epoch"]; got < 9 || got > 11 {
		t.Errorf("%d frames over ten idle T, want one each", got)
	}
	if got := after["engine_flushes"] - before["engine_flushes"]; got > 11 {
		t.Errorf("%d flushes over ten idle T, want one each", got)
	}
	if allocs != 0 {
		t.Errorf("an idle T allocates %.2f objects, want 0", allocs)
	}
}
