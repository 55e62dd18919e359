// Package ring implements consistent-hash routing over a fixed set of
// named nodes — the keyspace partitioner that shards the authoritative
// store (and spreads keys across cache nodes) without reshuffling the
// whole keyspace when the node set changes.
//
// Each node is projected onto the 64-bit hash circle at VirtualNodes
// points (virtual nodes smooth the per-node share toward 1/N); a key is
// owned by the node whose next point clockwise from Hash(key) comes
// first. Adding or removing one node moves only the ~1/N of keys whose
// arc it gains or loses — the property the freshness machinery leans on:
// a topology change invalidates one shard's worth of cached data, not
// everything (contrast with modulo hashing, where nearly every key
// changes owner).
//
// A Ring is immutable after New and safe for concurrent use.
package ring

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"freshcache/internal/sketch"
)

// DefaultVirtualNodes is the per-node point count used when a Ring is
// built with virtualNodes <= 0. 128 points per node keeps the maximum
// node share within a few percent of 1/N for small clusters.
const DefaultVirtualNodes = 128

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node int // index into nodes
}

// Ring is an immutable consistent-hash ring over a node list.
type Ring struct {
	nodes  []string
	points []point // sorted by (hash, node)
}

// New builds a ring over nodes with virtualNodes points per node
// (DefaultVirtualNodes when <= 0). The node list must be non-empty and
// free of duplicates; order is preserved and Owner returns indices into
// it.
func New(nodes []string, virtualNodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, errors.New("ring: at least one node is required")
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	seen := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, errors.New("ring: empty node name")
		}
		if _, dup := seen[n]; dup {
			return nil, fmt.Errorf("ring: duplicate node %q", n)
		}
		seen[n] = struct{}{}
	}
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]point, 0, len(nodes)*virtualNodes),
	}
	for i, n := range r.nodes {
		for v := 0; v < virtualNodes; v++ {
			h := mix64(sketch.Hash(n + "#" + strconv.Itoa(v)))
			r.points = append(r.points, point{hash: h, node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Len returns the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// VirtualNodes returns the per-node point count of this ring's
// geometry — the value New was built with.
func (r *Ring) VirtualNodes() int { return len(r.points) / len(r.nodes) }

// Nodes returns the node list in construction order. The caller must not
// mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Node returns the name of node i.
func (r *Ring) Node(i int) string { return r.nodes[i] }

// Owner returns the index of the node owning key.
func (r *Ring) Owner(key string) int { return r.OwnerOfHash(sketch.Hash(key)) }

// OwnerAddr returns the name of the node owning key.
func (r *Ring) OwnerAddr(key string) string { return r.nodes[r.Owner(key)] }

// OwnerOfHash returns the owning node for a pre-hashed key identity
// (sketch.Hash space): the node of the first ring point at or clockwise
// after the dispersed position of h, wrapping to the first point.
func (r *Ring) OwnerOfHash(h uint64) int {
	h = mix64(h)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// mix64 is the splitmix64 finalizer. FNV-1a over short, similar strings
// (vnode labels, sequential keys) leaves enough structure in the high
// bits to skew arc lengths badly; the finalizer disperses positions
// uniformly around the circle. Both point placement and key positions go
// through it, so it cancels out of the ownership relation.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// IndexOf returns the index of the named node, or -1 if it is not in
// the ring.
func (r *Ring) IndexOf(node string) int {
	for i, n := range r.nodes {
		if n == node {
			return i
		}
	}
	return -1
}

// Contains reports whether the named node is in the ring.
func (r *Ring) Contains(node string) bool { return r.IndexOf(node) >= 0 }

// Moved returns a predicate reporting whether a key's owner differs
// between two rings (compared by node name, so the predicate is
// meaningful even when the node lists differ). This is the ownership
// diff the resharding machinery scopes its work by: on a ring swap,
// only entries satisfying it lose their freshness channel and need a
// handoff deadline; everything else keeps its live push freshness.
func Moved(old, next *Ring) func(key string) bool {
	return func(key string) bool {
		return old.OwnerAddr(key) != next.OwnerAddr(key)
	}
}

// Replicas returns the first n distinct nodes encountered walking the
// ring clockwise from key's position — the key's replica set under
// n-way replication. The first element is always the owner; n is
// clamped to [1, Len]. The set has the property the failover machinery
// leans on: removing the owner from the ring makes the second element
// (the key's first successor) the new owner, so a node promoted by a
// ring publish already holds a replica of every key it gains.
func (r *Ring) Replicas(key string, n int) []string {
	return r.ReplicasOfHash(sketch.Hash(key), n)
}

// ReplicasOfHash is Replicas for a pre-hashed key identity.
func (r *Ring) ReplicasOfHash(h uint64, n int) []string {
	return r.appendReplicas(make([]string, 0, min(max(n, 1), len(r.nodes))), h, n)
}

// AppendReplicas appends key's n-node replica set (see Replicas) to dst
// and returns the extended slice: with room in dst the lookup allocates
// nothing, which is what the per-write replica-leg lookup wants.
func (r *Ring) AppendReplicas(dst []string, key string, n int) []string {
	return r.appendReplicas(dst, sketch.Hash(key), n)
}

func (r *Ring) appendReplicas(dst []string, h uint64, n int) []string {
	n = min(max(n, 1), len(r.nodes))
	h = mix64(h)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	// The walk's distinct nodes so far are exactly what it has appended,
	// so "seen" is a scan of that short tail — no scratch set.
	base := len(dst)
walk:
	for j := 0; j < len(r.points) && len(dst)-base < n; j++ {
		node := r.nodes[r.points[(i+j)%len(r.points)].node]
		for _, seen := range dst[base:] {
			if seen == node {
				continue walk
			}
		}
		dst = append(dst, node)
	}
	return dst
}

// IsReplica reports whether node self is within key's n-node replica
// set (owner included) — the keep-predicate of a replicated release.
func (r *Ring) IsReplica(self, key string, n int) bool {
	for _, node := range r.Replicas(key, n) {
		if node == self {
			return true
		}
	}
	return false
}

// ReplicaSources returns the nodes that own at least one ring arc whose
// n-replica walk includes self — i.e. the primaries self must hold
// replicas for under n-way replication, in ring construction order.
// With virtual nodes a primary's successors vary per arc, so for small
// clusters this is typically every other node.
func (r *Ring) ReplicaSources(self string, n int) []string {
	selfIdx := r.IndexOf(self)
	if selfIdx < 0 || n <= 1 || len(r.nodes) <= 1 {
		return nil
	}
	srcs := make([]bool, len(r.nodes))
	for i := range r.points {
		owner := r.points[i].node
		if owner == selfIdx || srcs[owner] {
			continue
		}
		// Walk clockwise from the arc's owning point: does self appear
		// among the n distinct nodes starting at the owner?
		distinct := 1
		seen := map[int]struct{}{owner: {}}
		for j := 1; j < len(r.points) && distinct < n; j++ {
			node := r.points[(i+j)%len(r.points)].node
			if _, dup := seen[node]; dup {
				continue
			}
			if node == selfIdx {
				srcs[owner] = true
				break
			}
			seen[node] = struct{}{}
			distinct++
		}
	}
	var out []string
	for i, isSrc := range srcs {
		if isSrc {
			out = append(out, r.nodes[i])
		}
	}
	return out
}

// Owns reports whether node i owns key.
func (r *Ring) Owns(i int, key string) bool { return r.Owner(key) == i }

// OwnedBy returns a predicate reporting key ownership by node i — the
// form the kv layer's scoped invalidation paths consume.
func (r *Ring) OwnedBy(i int) func(key string) bool {
	return func(key string) bool { return r.Owner(key) == i }
}
