package cache

import (
	"errors"
	"sync"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/costmodel"
	"freshcache/internal/proto"
)

// A batched read is N single cache-aside reads in one frame: the same
// per-key values, the same not-found identity, and the same counters —
// a mixed hit/stale/cold/absent batch classifies every key exactly as
// the single-key path would.
func TestBatchServeMixedAndSingleGetEquivalence(t *testing.T) {
	// Invalidate-leaning costs (cu huge): a write to a resident key
	// pushes an invalidation, which is how kStale goes stale.
	h := startHarness(t, 250*time.Millisecond, costmodel.Fixed(2, 0.25, 100), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()

	if _, err := c.Put("kStale", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("kStale"); err != nil { // resident...
		t.Fatal(err)
	}
	if _, err := c.Put("kStale", []byte("v2")); err != nil { // ...then invalidated
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return h.cache.StatsMap()["invalidates_applied"] > 0
	}, "invalidate push")

	// kHit resident and fresh; kCold written but never read; pushes for
	// non-resident keys are dropped, so neither disturbs the setup.
	for _, kv := range [][2]string{{"kHit", "v1"}, {"kCold", "v3"}} {
		if _, err := c.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get("kHit"); err != nil {
		t.Fatal(err)
	}

	before := h.cache.StatsMap()
	keys := []string{"kHit", "kStale", "kCold", "absent"}
	res, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		found bool
		val   string
	}{{true, "v1"}, {true, "v2"}, {true, "v3"}, {false, ""}}
	for i, w := range want {
		r := res[i]
		if r.Err != nil || r.Found != w.found || (w.found && string(r.Value) != w.val) {
			t.Errorf("MGet[%s] = %+v, want found=%v %q", keys[i], r, w.found, w.val)
		}
	}

	after := h.cache.StatsMap()
	diff := func(k string) uint64 { return after[k] - before[k] }
	if diff("gets") != 4 || diff("hits") != 1 || diff("stale_misses") != 1 || diff("cold_misses") != 2 {
		t.Errorf("batch classification: gets=%d hits=%d stale=%d cold=%d, want 4/1/1/2",
			diff("gets"), diff("hits"), diff("stale_misses"), diff("cold_misses"))
	}
	if diff("mget_ops") != 4 || diff("batch_size_samples") != 1 {
		t.Errorf("batch telemetry: mget_ops=%d batch_size_samples=%d, want 4/1",
			diff("mget_ops"), diff("batch_size_samples"))
	}

	// Every key now reads back identically through the single-key path
	// (the batch's fills made kStale/kCold/absent's outcomes resident
	// where they exist).
	for i, k := range keys {
		v, _, err := c.Get(k)
		if !want[i].found {
			if !errors.Is(err, client.ErrNotFound) {
				t.Errorf("single Get(%s) = %v, want not-found", k, err)
			}
			continue
		}
		if err != nil || string(v) != want[i].val {
			t.Errorf("single Get(%s) = %q %v, want %q", k, v, err, want[i].val)
		}
	}
}

// A batched write through the cache reaches the store with per-key
// versions, and a following batched read returns the written values.
func TestBatchPutThroughCache(t *testing.T) {
	h := startHarness(t, 250*time.Millisecond, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()

	keys := []string{"w1", "w2", "w3"}
	vals := [][]byte{[]byte("x1"), []byte("x2"), []byte("x3")}
	wres, err := c.MPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range wres {
		if r.Err != nil || r.Version == 0 {
			t.Errorf("MPut[%s] = %+v", keys[i], r)
		}
	}
	rres, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rres {
		if r.Err != nil || !r.Found || string(r.Value) != string(vals[i]) ||
			r.Version != wres[i].Version {
			t.Errorf("MGet[%s] = %+v, want %q v%d", keys[i], r, vals[i], wres[i].Version)
		}
	}
}

// Concurrent misses for one key — single Gets and batch members alike —
// share one in-flight store fill. The dedupe counter accounts for every
// joiner, and the store sees exactly one fill.
func TestSingleFlightFillDedupe(t *testing.T) {
	st, sln := startShardedStore(t, time.Second, "shard-0")
	t.Cleanup(func() { st.Close() })
	gate := newGateProxy(t, sln.Addr().String())

	ca, err := New(Config{StoreAddr: gate.addr(), T: time.Second,
		Name: "dedupe-cache", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ca.Close() })

	direct := client.New(sln.Addr().String(), client.Options{})
	defer direct.Close()
	if _, err := direct.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Freeze the leader's fill response in flight.
	gate.hold()
	var wg sync.WaitGroup
	readOne := func() {
		defer wg.Done()
		v, _, err := ca.Get("k")
		if err != nil || string(v) != "v1" {
			t.Errorf("deduped Get = %q %v", v, err)
		}
	}
	wg.Add(1)
	go readOne()
	waitFor(t, 5*time.Second, func() bool {
		sm, err := direct.Stats()
		return err == nil && sm["fills"] > 0
	}, "leader fill to reach the store")

	// Four more single Gets and a duplicate-key batch all join the
	// leader's flight.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go readOne()
	}
	batchDone := make(chan *proto.Msg, 1)
	go func() {
		ops, misses := ca.mgetLookup(&proto.Msg{Type: proto.MsgMGet, Keys: []string{"k", "k"}}, nil)
		batchDone <- ca.mgetFill(&proto.Msg{Type: proto.MsgMGetResp, Ops: ops}, misses, nil)
	}()
	waitFor(t, 5*time.Second, func() bool {
		return ca.StatsMap()["fills_deduped"] == 6
	}, "4 single joiners + 2 batch joiners")

	gate.release()
	wg.Wait()
	resp := <-batchDone
	if resp.Type != proto.MsgMGetResp || len(resp.Ops) != 2 {
		t.Fatalf("batch resp = %+v", resp)
	}
	for i, op := range resp.Ops {
		if op.Kind != proto.BatchUpdate || string(op.Value) != "v1" {
			t.Errorf("batch op[%d] = %+v", i, op)
		}
	}

	sm, err := direct.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sm["fills"] != 1 {
		t.Errorf("store served %d fills, want 1 (single-flight)", sm["fills"])
	}
	if got := ca.StatsMap()["fills_deduped"]; got != 6 {
		t.Errorf("fills_deduped = %d, want 6", got)
	}
}
