package ring

import (
	"fmt"
	"slices"
	"testing"

	"freshcache/internal/sketch"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := New([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := New([]string{"a", ""}, 0); err == nil {
		t.Error("empty node name accepted")
	}
	r, err := New([]string{"a"}, -5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.points) != DefaultVirtualNodes {
		t.Errorf("vnodes defaulted to %d, want %d", len(r.points), DefaultVirtualNodes)
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r, err := New([]string{"only"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if got := r.Owner(fmt.Sprintf("key-%d", i)); got != 0 {
			t.Fatalf("Owner = %d, want 0", got)
		}
	}
	if r.OwnerAddr("x") != "only" {
		t.Errorf("OwnerAddr = %q", r.OwnerAddr("x"))
	}
}

func TestLookupDeterministic(t *testing.T) {
	nodes := []string{"s1", "s2", "s3"}
	a, _ := New(nodes, 64)
	b, _ := New(nodes, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("rings disagree on %q", key)
		}
	}
}

func TestDistributionRoughlyBalanced(t *testing.T) {
	const nodesN, keys = 4, 100000
	nodes := make([]string, nodesN)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("store-%d:7001", i)
	}
	r, err := New(nodes, DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nodesN)
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%06d", i))]++
	}
	for i, c := range counts {
		share := float64(c) / keys
		if share < 0.15 || share > 0.35 {
			t.Errorf("node %d share %.3f outside [0.15, 0.35]: %v", i, share, counts)
		}
	}
}

// TestJoinMovesOneShare is the consistent-hashing contract: adding a node
// to an n-node ring must move roughly 1/(n+1) of the keyspace — not
// nearly all of it, as modulo hashing does.
func TestJoinMovesOneShare(t *testing.T) {
	const keys = 50000
	base := []string{"s1", "s2", "s3", "s4"}
	before, err := New(base, DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	after, err := New(append(append([]string(nil), base...), "s5"), DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%06d", i)
		ob, oa := before.Owner(key), after.Owner(key)
		if ob != oa {
			moved++
			// Every moved key must land on the new node; consistent
			// hashing never shuffles keys between surviving nodes.
			if oa != 4 {
				t.Fatalf("key %q moved %d -> %d, not to the joiner", key, ob, oa)
			}
		}
	}
	frac := float64(moved) / keys
	ideal := 1.0 / 5
	if frac > 2*ideal {
		t.Errorf("join moved %.3f of keys, want about %.3f", frac, ideal)
	}
	if moved == 0 {
		t.Error("join moved no keys")
	}
}

// TestMovedMatchesBruteForce pins the ownership diff used by live
// resharding: Moved must agree exactly with a brute-force owner
// comparison, every moved key must land on the joiner, and the moved
// fraction at N→N+1 must be within 2x of the ideal 1/(N+1) share.
func TestMovedMatchesBruteForce(t *testing.T) {
	const keys = 20000
	for _, n := range []int{1, 2, 4, 8} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("10.0.0.%d:7001", i)
		}
		before, err := New(nodes, DefaultVirtualNodes)
		if err != nil {
			t.Fatal(err)
		}
		joiner := "10.0.1.99:7001"
		after, err := New(append(append([]string(nil), nodes...), joiner), DefaultVirtualNodes)
		if err != nil {
			t.Fatal(err)
		}
		movedPred := Moved(before, after)
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("key-%06d", i)
			brute := before.OwnerAddr(key) != after.OwnerAddr(key)
			if movedPred(key) != brute {
				t.Fatalf("n=%d: Moved(%q) = %v, brute force says %v", n, key, movedPred(key), brute)
			}
			if brute {
				moved++
				if after.OwnerAddr(key) != joiner {
					t.Fatalf("n=%d: key %q moved %s -> %s, not to the joiner",
						n, key, before.OwnerAddr(key), after.OwnerAddr(key))
				}
			}
		}
		frac := float64(moved) / keys
		ideal := 1.0 / float64(n+1)
		if frac > 2*ideal || frac < ideal/2 {
			t.Errorf("n=%d: join moved %.4f of keys, want within 2x of %.4f", n, frac, ideal)
		}
	}
}

func TestIndexOfAndContains(t *testing.T) {
	r, err := New([]string{"a", "b", "c"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"a", "b", "c"} {
		if got := r.IndexOf(n); got != i {
			t.Errorf("IndexOf(%q) = %d, want %d", n, got, i)
		}
		if !r.Contains(n) {
			t.Errorf("Contains(%q) = false", n)
		}
	}
	if r.IndexOf("zzz") != -1 || r.Contains("zzz") {
		t.Error("unknown node reported as member")
	}
}

func TestOwnsAndOwnedByAgree(t *testing.T) {
	r, err := New([]string{"a", "b", "c"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := r.Owner(key)
		for n := 0; n < r.Len(); n++ {
			want := n == owner
			if r.Owns(n, key) != want {
				t.Fatalf("Owns(%d, %q) != %v", n, key, want)
			}
			if r.OwnedBy(n)(key) != want {
				t.Fatalf("OwnedBy(%d)(%q) != %v", n, key, want)
			}
		}
	}
}

func TestReplicasDistinctAndOwnerFirst(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r, err := New(nodes, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		for n := 1; n <= 6; n++ {
			reps := r.Replicas(key, n)
			want := n
			if want > len(nodes) {
				want = len(nodes)
			}
			if len(reps) != want {
				t.Fatalf("Replicas(%q, %d) has %d nodes, want %d", key, n, len(reps), want)
			}
			if reps[0] != r.OwnerAddr(key) {
				t.Fatalf("Replicas(%q, %d)[0] = %s, owner is %s", key, n, reps[0], r.OwnerAddr(key))
			}
			seen := map[string]bool{}
			for _, node := range reps {
				if seen[node] {
					t.Fatalf("Replicas(%q, %d) repeats %s", key, n, node)
				}
				seen[node] = true
			}
			if !r.IsReplica(reps[len(reps)-1], key, n) || r.IsReplica("nope", key, n) {
				t.Fatalf("IsReplica disagrees with Replicas(%q, %d)", key, n)
			}
		}
	}
	if got := r.Replicas("k", 0); len(got) != 1 {
		t.Errorf("Replicas clamp low: %v", got)
	}
}

// TestAppendReplicasMatchesReplicas pins the append-into form to the
// allocating one, and both to an independent walk that tracks the nodes
// it has seen in a set: same nodes, same order, for n below, at and past
// the ring size; dst's prefix survives; room in dst means no allocation.
func TestAppendReplicasMatchesReplicas(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r, err := New(nodes, 32)
	if err != nil {
		t.Fatal(err)
	}
	walk := func(key string, n int) []string {
		start := 0
		for h := mix64(sketch.Hash(key)); start < len(r.points) && r.points[start].hash < h; {
			start++
		}
		var out []string
		seen := map[int]bool{}
		for j := 0; j < len(r.points) && len(out) < n; j++ {
			if p := r.points[(start+j)%len(r.points)]; !seen[p.node] {
				seen[p.node] = true
				out = append(out, nodes[p.node])
			}
		}
		return out
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		for _, n := range []int{1, 2, r.Len(), r.Len() + 3} {
			want := walk(key, n)
			if got := r.Replicas(key, n); !slices.Equal(got, want) {
				t.Fatalf("Replicas(%q, %d) = %v, the walk gives %v", key, n, got, want)
			}
			got := r.AppendReplicas([]string{"kept"}, key, n)
			if got[0] != "kept" || !slices.Equal(got[1:], want) {
				t.Fatalf("AppendReplicas([kept], %q, %d) = %v, want kept + %v", key, n, got, want)
			}
		}
	}
	var buf [8]string
	if allocs := testing.AllocsPerRun(100, func() { r.AppendReplicas(buf[:0], "key-1", 3) }); allocs != 0 {
		t.Errorf("AppendReplicas into a roomy dst allocates %.0f objects", allocs)
	}
}

// TestReplicaPromotionProperty is the property automatic failover leans
// on: removing a key's owner from the ring promotes exactly the key's
// first successor — the node that already holds the replica.
func TestReplicaPromotionProperty(t *testing.T) {
	nodes := []string{"s0", "s1", "s2", "s3", "s4"}
	r, err := New(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := r.Replicas(key, 2)
		owner := reps[0]
		var survivors []string
		for _, n := range nodes {
			if n != owner {
				survivors = append(survivors, n)
			}
		}
		shrunk, err := New(survivors, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := shrunk.OwnerAddr(key); got != reps[1] {
			t.Fatalf("key %q: owner %s removed, new owner %s, want first replica %s",
				key, owner, got, reps[1])
		}
	}
}

// TestReplicaSourcesConsistent cross-checks ReplicaSources against the
// per-key replica walk: whenever a sampled key owned by P carries B in
// its replica tail, P must be among B's sources.
func TestReplicaSourcesConsistent(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r, err := New(nodes, 32)
	if err != nil {
		t.Fatal(err)
	}
	const R = 2
	sources := map[string]map[string]bool{}
	for _, self := range nodes {
		sources[self] = map[string]bool{}
		for _, p := range r.ReplicaSources(self, R) {
			sources[self][p] = true
		}
		if sources[self][self] {
			t.Fatalf("node %s lists itself as a replica source", self)
		}
	}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := r.Replicas(key, R)
		for _, b := range reps[1:] {
			if !sources[b][reps[0]] {
				t.Fatalf("key %q owned by %s replicates to %s, but %s is not a ReplicaSource of %s",
					key, reps[0], b, reps[0], b)
			}
		}
	}
	if got := r.ReplicaSources("a", 1); got != nil {
		t.Errorf("R=1 sources = %v, want none", got)
	}
	single, err := New([]string{"solo"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := single.ReplicaSources("solo", 3); got != nil {
		t.Errorf("single-node sources = %v, want none", got)
	}
}
