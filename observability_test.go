package freshcache_test

import (
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"freshcache"
	"freshcache/internal/obs"
	"freshcache/internal/proto"
	"freshcache/internal/stats"
)

// obsStack boots a store + cache + LB chain on loopback and returns the
// three servers plus a client talking to the LB.
func obsStack(t *testing.T, T time.Duration) (*freshcache.StoreServer, *freshcache.CacheServer, *freshcache.LoadBalancer, *freshcache.Client) {
	t.Helper()
	st, caches, balancer, c := obsStackN(t, T, 1, 0)
	return st, caches[0], balancer, c
}

// obsStackN is obsStack with n caches behind the balancer, each bounded to
// capacity objects (0 = unbounded).
func obsStackN(t *testing.T, T time.Duration, n, capacity int) (*freshcache.StoreServer, []*freshcache.CacheServer, *freshcache.LoadBalancer, *freshcache.Client) {
	t.Helper()
	st := freshcache.NewStoreServer(freshcache.StoreConfig{T: T, ShardID: "obs-store"})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(sln) //nolint:errcheck
	t.Cleanup(func() { st.Close() })

	var caches []*freshcache.CacheServer
	var cacheAddrs []string
	for i := 0; i < n; i++ {
		name := "obs-cache"
		if i > 0 {
			name = fmt.Sprintf("obs-cache-%d", i)
		}
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			StoreAddr: sln.Addr().String(), T: T, Name: name, Capacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		cln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ca.Serve(cln) //nolint:errcheck
		t.Cleanup(func() { ca.Close() })
		caches = append(caches, ca)
		cacheAddrs = append(cacheAddrs, cln.Addr().String())
	}

	balancer, err := freshcache.NewLoadBalancer(freshcache.LBConfig{
		StoreAddr:  sln.Addr().String(),
		CacheAddrs: cacheAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go balancer.Serve(bln) //nolint:errcheck
	t.Cleanup(func() { balancer.Close() })

	c := freshcache.NewClient(bln.Addr().String(), freshcache.ClientOptions{})
	t.Cleanup(func() { c.Close() })
	return st, caches, balancer, c
}

// TestTraceEndToEnd runs a traced cache-miss GET through LB → cache →
// store and checks the response carries the full hop tree: at least
// three spans, each with a nonzero duration, outer hops enclosing
// inner ones.
func TestTraceEndToEnd(t *testing.T) {
	_, _, _, c := obsStack(t, 40*time.Millisecond)

	if _, err := c.Put("traced-key", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	const traceID uint64 = 0xabcdef0123456789
	// Cache-miss read: the cache has never seen the key, so the fill
	// goes all the way to the store and every hop contributes a span.
	v, _, tr, err := c.GetTraced("traced-key", traceID)
	if err != nil || string(v) != "v1" {
		t.Fatalf("GetTraced = %q, %v", v, err)
	}
	if tr == nil {
		t.Fatal("traced GET returned no trace")
	}
	if tr.ID != traceID {
		t.Fatalf("trace ID = %#x, want %#x", tr.ID, traceID)
	}
	if len(tr.Spans) < 3 {
		t.Fatalf("cache-miss GET recorded %d hops %v, want >= 3 (lb, cache, store)", len(tr.Spans), tr.Spans)
	}
	// Spans accumulate innermost hop first; the store must be inside
	// the cache, the cache inside the LB.
	names := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		names[i] = s.Node
		if s.Dur <= 0 {
			t.Errorf("hop %s has non-positive duration %d", s.Node, s.Dur)
		}
		if s.Start <= 0 {
			t.Errorf("hop %s has zero start", s.Node)
		}
	}
	want := []string{"store:obs-store", "cache:obs-cache", "lb"}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("hop order = %v, want %v", names, want)
		}
	}
	for i := 0; i+1 < len(tr.Spans); i++ {
		if tr.Spans[i].Dur > tr.Spans[i+1].Dur {
			t.Errorf("inner hop %s (%d ns) outlasts enclosing %s (%d ns)",
				tr.Spans[i].Node, tr.Spans[i].Dur, tr.Spans[i+1].Node, tr.Spans[i+1].Dur)
		}
	}

	// A fresh-hit read stops at the cache: two hops, no store span.
	_, _, tr, err = c.GetTraced("traced-key", traceID+1)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || len(tr.Spans) != 2 {
		t.Fatalf("fresh-hit trace = %+v, want exactly [cache lb]", tr)
	}

	// Traced writes go LB → store.
	_, tr, err = c.PutTraced("traced-key", []byte("v2"), traceID+2)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || len(tr.Spans) != 2 ||
		tr.Spans[0].Node != "store:obs-store" || tr.Spans[1].Node != "lb" {
		t.Fatalf("traced PUT spans = %+v, want [store:obs-store lb]", tr)
	}

	// Untraced requests stay untraced end to end.
	if _, _, err := c.Get("traced-key"); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndToEnd scrapes /metrics from all four server types and
// checks each renders parseable Prometheus text including the freshness
// telemetry families, and that the wire stats map agrees with the
// registry.
func TestMetricsEndToEnd(t *testing.T) {
	const T = 30 * time.Millisecond
	st, ca, balancer, c := obsStack(t, T)

	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{Stores: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })

	// Drive some traffic so counters and histograms have samples: a
	// write, a miss fill, fresh hits, and a re-read after the bound.
	if _, err := c.Put("mk", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Get("mk"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * T)
	if _, _, err := c.Get("mk"); err != nil {
		t.Fatal(err)
	}

	scrape := func(name string, reg *stats.Registry) string {
		t.Helper()
		srv := httptest.NewServer(obs.Handler(reg))
		defer srv.Close()
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: content type %q", name, ct)
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading body: %v", name, err)
		}
		body := string(blob)
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if line == "" {
				t.Errorf("%s: blank exposition line", name)
			}
			if strings.HasPrefix(line, "#") {
				if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
					t.Errorf("%s: malformed comment %q", name, line)
				}
				continue
			}
			if _, _, ok := parseExpositionLine(line); !ok {
				t.Errorf("%s: unparseable sample %q", name, line)
			}
		}
		return body
	}

	storeText := scrape("store", st.Metrics())
	for _, want := range []string{
		"# TYPE freshcache_store_served_age_ratio histogram",
		"freshcache_store_served_age_ratio_bucket{le=\"1\"}",
		"freshcache_store_gets_total",
		"freshcache_store_push_decisions_total{action=\"invalidate\"}",
		"freshcache_store_replication_rtt_seconds_count",
		// The one write went out once, after a dwell the store observed:
		// nobody had read the key when it was written, so it was held.
		"# TYPE freshcache_store_flush_dwell_seconds histogram",
		"freshcache_store_flush_dwell_seconds_count{edge=\"leading\"} 0",
		"freshcache_store_flush_dwell_seconds_count{edge=\"cooldown\"} 1",
		"freshcache_store_pushes_leading_total ",
		"freshcache_store_pushes_cooldown_total ",
	} {
		if !strings.Contains(storeText, want) {
			t.Errorf("store /metrics missing %q", want)
		}
	}
	cacheText := scrape("cache", ca.Metrics())
	for _, want := range []string{
		"# TYPE freshcache_cache_served_age_ratio histogram",
		"freshcache_cache_served_age_ratio_count",
		"freshcache_cache_deadline_expired_total",
		"freshcache_cache_near_miss_serves_total",
		"freshcache_cache_misses_total{kind=\"cold\"} 1",
		"freshcache_cache_hits_total",
	} {
		if !strings.Contains(cacheText, want) {
			t.Errorf("cache /metrics missing %q", want)
		}
	}
	lbText := scrape("lb", balancer.Metrics())
	for _, want := range []string{
		"freshcache_lb_reads_total 6",
		"freshcache_lb_writes_total 1",
		"freshcache_lb_read_rtt_seconds_bucket",
	} {
		if !strings.Contains(lbText, want) {
			t.Errorf("lb /metrics missing %q", want)
		}
	}
	coordText := scrape("coordinator", co.Metrics())
	for _, want := range []string{
		"freshcache_coord_ring_epoch 1",
		"freshcache_coord_is_leader 1",
		"freshcache_coord_heartbeats_total",
	} {
		if !strings.Contains(coordText, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}

	// The wire stats map is the same registry: spot-check agreement.
	stMap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stMap["reads"] != 6 || stMap["writes"] != 1 {
		t.Errorf("lb stats map = reads %d writes %d, want 6/1", stMap["reads"], stMap["writes"])
	}
	caMap := ca.StatsMap()
	if caMap["gets"] != 6 || caMap["cold_misses"] != 1 {
		t.Errorf("cache stats map = gets %d cold %d, want 6/1", caMap["gets"], caMap["cold_misses"])
	}
	if caMap["served_age_samples"] == 0 {
		t.Error("cache recorded no served-age samples despite fresh hits")
	}
}

// parseExpositionLine splits "name{labels} value" / "name value".
func parseExpositionLine(line string) (name, value string, ok bool) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		name, rest = line[:i], strings.TrimSpace(line[j+1:])
	} else {
		i = strings.IndexByte(line, ' ')
		if i < 0 {
			return "", "", false
		}
		name, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	if name == "" || rest == "" {
		return "", "", false
	}
	return name, rest, true
}

// TestTraceSamplingOffNoOverhead checks an untraced response never grows
// a trace and the span recorder tolerates the nil fast path (the hot
// path's only cost with sampling off).
func TestTraceSamplingOffNoOverhead(t *testing.T) {
	m := &proto.Msg{Type: proto.MsgGet, Key: "k"}
	if rec := proto.StartSpan(m, "node"); rec != nil {
		t.Fatal("untraced request produced a span recorder")
	}
	var rec *proto.SpanRec
	rec.Add(&proto.Trace{ID: 1})
	if rec.ID() != 0 || rec.Elapsed() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	resp := &proto.Msg{Type: proto.MsgGetResp}
	if out := rec.Finish(resp); out != resp || out.Trace != nil {
		t.Fatal("nil recorder attached a trace")
	}
}

// TestReadHitAllocationPin holds the run-to-completion read path to its
// allocation budget: one GET answered from the cache, through client →
// LB → cache and back, allocates at most 3 objects in the whole process
// (the client's copy of the value is the one that must remain). A
// goroutine spawned per request at either hop, or a response copied
// between goroutines, costs two or more each and trips this.
func TestReadHitAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and makes sync.Pool drop objects")
	}
	// T of an hour: no flush, push or read report runs in the background
	// while allocations are being counted.
	_, _, _, c := obsStack(t, time.Hour)
	if _, err := c.Put("pinned", make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if v, _, err := c.Get("pinned"); err != nil || len(v) != 128 {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 100; i++ { // resident, connections up, pools and intern tables warm
		get()
	}
	if allocs := testing.AllocsPerRun(2000, get); allocs > 3 {
		t.Errorf("a cache hit through the LB allocates %.0f objects, budget is 3", allocs)
	}
}

// TestBatchReadAllocationPin does the same for the scatter/gather path: a
// 16-key MGET of resident keys, through client → LB → 2 caches and back,
// allocates at most 4 objects in the whole process. Measured: 56 while
// the LB fanned out on goroutines (per-key slice growth at the LB and
// both caches, a dispatcher plus two fan-out goroutines, an owned copy of
// each sub-batch's response); 7 once it gathered by continuation — the
// blocking client's owned copy of the answer and its result slice (3),
// and per cache the response's op slice and the kv batch probe's shard
// index (2 × 2); 2 now that the caches answer from a per-connection op
// scratch, encoded in the read loop, with the shard indexes on the stack,
// and the client decodes the lent answer straight into its result slice
// and value buffer, which are what remains. The LB and the caches
// allocate nothing; the pin is 2 + 2.
func TestBatchReadAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and makes sync.Pool drop objects")
	}
	_, caches, _, c := obsStackN(t, time.Hour, 2, 0)
	keys := make([]string, 16)
	vals := make([][]byte, 16)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("pinned-%d", i), make([]byte, 128)
	}
	if _, err := c.MPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	mget := func() {
		res, err := c.MGet(keys)
		if err != nil || len(res) != 16 || len(res[15].Value) != 128 {
			t.Fatalf("MGet = %d results, %v", len(res), err)
		}
	}
	for i := 0; i < 100; i++ { // resident, connections up, pools and intern tables warm
		mget()
	}
	for i, ca := range caches {
		if ca.StatsMap()["gets"] == 0 {
			t.Fatalf("cache %d served none of the batch: the pin must cover a two-way scatter", i)
		}
	}
	if allocs := testing.AllocsPerRun(2000, mget); allocs > 4 {
		t.Errorf("a 16-key all-hit MGET through the LB allocates %.0f objects, budget is 4", allocs)
	}
}

// TestBatchReadColdKeysAllocationPin is TestBatchReadAllocationPin over
// more keys than a connection's intern table holds (proto's internLimit,
// 4096): 16-key all-hit MGETs round robin over 8192 resident keys, so
// every key misses every intern table on the way. What is left are the
// request's keys, interned where a request is read — 16 at the LB, and at
// the caches most of their 16 (each sees only its share of the keys, about
// as many as its table holds) — and the blocking client's result slice and
// value buffer: 33. Measured 68 to 71 while the answers named their keys
// too, which the client and the LB interned again on reading them. The pin
// is 33 + 2.
func TestBatchReadColdKeysAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and makes sync.Pool drop objects")
	}
	const universe = 8192
	_, _, _, c := obsStackN(t, time.Hour, 2, 0)
	keys := make([]string, universe)
	vals := make([][]byte, universe)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("cold-%d", i), make([]byte, 128)
	}
	for i := 0; i < universe; i += 512 {
		if _, err := c.MPut(keys[i:i+512], vals[i:i+512]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	mget := func() {
		batch := keys[next : next+16]
		res, err := c.MGet(batch)
		if err != nil || len(res) != 16 || !res[15].Found || len(res[15].Value) != 128 {
			t.Fatalf("MGet = %d results, %v", len(res), err)
		}
		next = (next + 16) % universe
	}
	for i := 0; i < universe/16; i++ { // every key resident in its cache, connections up
		mget()
	}
	if allocs := testing.AllocsPerRun(2000, mget); allocs > 35 {
		t.Errorf("a 16-key all-hit MGET of keys no intern table holds allocates %.0f objects, budget is 35", allocs)
	}
}

// TestMissAllocationPin holds the miss path to its budget: a GET for a
// key the cache does not hold, through client → LB → cache → store and
// back, with the cache at capacity so that every fill evicts. Measured: 7
// while a miss parked a goroutine on a channel (the flight and its
// channel, the miss closure and the goroutine's, a list node per install,
// on top of what remains), 2 now that it parks a record on a pooled flight
// and is answered from the store connection's reader — the cache's copy of
// the filled value, which becomes the resident entry, and the blocking
// client's copy of the answer. The pin is 2 + 2.
func TestMissAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and makes sync.Pool drop objects")
	}
	// One slot per kv shard, and eight times as many keys read round
	// robin: whatever a GET asks for was evicted long ago.
	const capacity, universe = 64, 512
	_, caches, _, c := obsStackN(t, time.Hour, 1, capacity)
	keys := make([]string, universe)
	for i := range keys {
		keys[i] = fmt.Sprintf("churn-%d", i)
		if _, err := c.Put(keys[i], make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	get := func() {
		if v, _, err := c.Get(keys[next%universe]); err != nil || len(v) != 128 {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
		next++
	}
	for i := 0; i < 2*universe; i++ { // cache full, connections up, pools and intern tables warm
		get()
	}
	before := caches[0].StatsMap()
	allocs := testing.AllocsPerRun(2000, get)
	after := caches[0].StatsMap()
	if misses := after["cold_misses"] - before["cold_misses"]; misses < 2000 || after["evictions"]-before["evictions"] < 2000 {
		t.Fatalf("only %d of the GETs missed (%d evictions): the pin must cover the evicting miss path",
			misses, after["evictions"]-before["evictions"])
	}
	if allocs > 4 {
		t.Errorf("a miss through the LB allocates %.0f objects, budget is 4", allocs)
	}
}

// TestWriteAllocationPin holds the write path to its budget: a 1 KiB PUT
// through client → LB → owning store → replica (R = 2) and back. Measured:
// 12 while the LB and the primary each handed the PUT to a goroutine (at
// the LB a copy of the value and the dispatcher's closure; at the primary a
// one-op slice, a second copy of the value, the forward goroutine's two
// closures, the leg list and its index, the tracker counts; at the replica
// a fresh ack), 2 now that the PUT is relayed from the LB's read loop and
// acknowledged from the replica connection's reader — the primary's and
// the replica's resident copy of the value, which must remain. The pin is
// 2 + 2.
func TestWriteAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and makes sync.Pool drop objects")
	}
	// T of an hour: no flush, push or read report runs while allocations
	// are counted. The stores heartbeat twice a second (lease / 8) — a few
	// allocations each, lost in the per-PUT average over 2000 runs.
	cl := startFailoverCluster(t, time.Hour, 4*time.Second, 2, 2, 1)
	c := freshcache.NewClient(cl.lbAddr, freshcache.ClientOptions{})
	t.Cleanup(func() { c.Close() })
	const universe = 256
	keys := make([]string, universe)
	for i := range keys {
		keys[i] = fmt.Sprintf("written-%d", i)
	}
	value := make([]byte, 1024)
	next := 0
	put := func() {
		if _, err := c.Put(keys[next%universe], value); err != nil {
			t.Fatalf("Put: %v", err)
		}
		next++
	}
	for i := 0; i < 4*universe; i++ { // connections up, pools, scratch and intern tables warm
		put()
	}
	before := [2]map[string]uint64{cl.stores[0].Metrics().StatsMap(), cl.stores[1].Metrics().StatsMap()}
	allocs := testing.AllocsPerRun(2000, put)
	for i, st := range cl.stores {
		after := st.Metrics().StatsMap()
		if after["puts"] == before[i]["puts"] || after["rep_writes_in"] == before[i]["rep_writes_in"] {
			t.Fatalf("store %d took puts %d → %d, replica pushes %d → %d: the pin must cover both stores as primary and as replica",
				i, before[i]["puts"], after["puts"], before[i]["rep_writes_in"], after["rep_writes_in"])
		}
	}
	if allocs > 4 {
		t.Errorf("a replicated PUT through the LB allocates %.0f objects, budget is 4", allocs)
	}
}

// TestBatchWriteAllocationPin holds the batched write path to its budget: a
// 16-op MPUT of 128-byte values through client → LB → 2 stores (R = 2, so
// each store takes its own ops as primary and the other's as replica) and
// back. Measured: 90 to 93 while the LB copied the batch's values and handed
// it to a dispatcher goroutine whose sharded client fanned out on two more
// (the value copy, three closures and goroutines, the partition's six
// appended slices, two argument slices, a request op list and an owned copy
// of the answer per shard, the result slices); 45 once the LB scattered it
// from its read loop through the sharded client's pooled record and
// gathered it from the store connections' readers — 32 resident copies of
// the values (sixteen ops, two stores each), per store the batch install's
// key, value and version lists, its shard index and a copy of the answer's
// op list, and the blocking client's request op list, owned copy of the
// answer and result slice. 33 now that those lists are the connections'
// scratch, the answer is encoded before its record is recycled and the
// client decodes the lent answer straight into its result slice: the
// resident copies and that slice remain. The pin is 33 + 2.
func TestBatchWriteAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and makes sync.Pool drop objects")
	}
	cl := startFailoverCluster(t, time.Hour, 4*time.Second, 2, 2, 1)
	c := freshcache.NewClient(cl.lbAddr, freshcache.ClientOptions{})
	t.Cleanup(func() { c.Close() })
	keys := make([]string, 16)
	vals := make([][]byte, 16)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("batched-%d", i), make([]byte, 128)
	}
	mput := func() {
		res, err := c.MPut(keys, vals)
		if err != nil || len(res) != 16 || res[15].Err != nil {
			t.Fatalf("MPut = %d results, %v", len(res), err)
		}
	}
	for i := 0; i < 200; i++ { // connections up, pools, scratch and intern tables warm
		mput()
	}
	before := [2]map[string]uint64{cl.stores[0].Metrics().StatsMap(), cl.stores[1].Metrics().StatsMap()}
	allocs := testing.AllocsPerRun(2000, mput)
	for i, st := range cl.stores {
		after := st.Metrics().StatsMap()
		if after["mput_ops"] == before[i]["mput_ops"] || after["rep_writes_in"] == before[i]["rep_writes_in"] {
			t.Fatalf("store %d took batched ops %d → %d, replica pushes %d → %d: the pin must cover a two-way scatter, each store primary and replica",
				i, before[i]["mput_ops"], after["mput_ops"], before[i]["rep_writes_in"], after["rep_writes_in"])
		}
	}
	if allocs > 35 {
		t.Errorf("a 16-op MPUT through the LB allocates %.0f objects, budget is 35", allocs)
	}
}
