// Package replication turns a set of crowdd nodes into one replicated,
// sharded cluster.
//
// Device models are sharded across nodes by a consistent-hash ring
// (Ring): each model has a primary that stamps its submissions with a
// hybrid-logical-clock timestamp, and a replica set the primary ships
// committed records to over HTTP. Shipping is asynchronous and lossy by
// design (bounded queues, capped retries); a periodic anti-entropy loop
// (Replicator.reconcile) exchanges per-model digests with every peer and
// pulls whatever diverged, so the cluster converges even through node
// kills, dropped batches and partitions. Far-behind followers are caught
// up by pulling the full model state in one exchange — snapshot shipping
// rather than record-at-a-time repair.
//
// The package is transport-thin: it speaks two HTTP paths the server
// exposes (/v1/replicate, /v1/digest) and leaves durability to the
// Apply callback, which routes through the node's own WAL-backed commit
// path.
package replication

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// VNodes is how many virtual points each node contributes to the ring.
// More points smooth the key balance; 64 keeps the worst node within a
// few tens of percent of the mean for small clusters while the ring
// stays tiny.
const VNodes = 64

// Ring is an immutable consistent-hash ring mapping shard keys (device
// model names) to node IDs. Each node appears VNodes times at
// pseudo-random points on a 64-bit circle; a key is owned by the first
// node point at or clockwise of the key's hash. Immutability makes
// membership changes explicit derivations (WithNode, WithoutNode) and
// lets lookups run lock-free.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted, distinct
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node IDs with VNodes virtual
// points per node. Duplicate node IDs collapse.
func NewRing(nodes []string) *Ring {
	distinct := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		distinct = append(distinct, n)
	}
	sort.Strings(distinct)
	r := &Ring{
		points: make([]ringPoint, 0, len(distinct)*VNodes),
		nodes:  distinct,
	}
	for _, n := range distinct {
		for i := 0; i < VNodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// hashKey hashes a ring key or vnode label onto the 64-bit circle.
// FNV-64a alone clusters short, similar strings ("n1#0", "n1#1", ...)
// into a narrow band of the circle, so the sum is pushed through a
// 64-bit avalanche finalizer (the splitmix64 mixer) to spread the
// points uniformly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node that owns key — its shard primary. Empty
// string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hashKey(key))].node
}

// search returns the index of the first point at or clockwise of h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return i
}

// ReplicaSet returns up to n distinct nodes for key, primary first,
// walking clockwise from the key's hash. n <= 0 (or n beyond the
// membership) means every node — full replication.
func (r *Ring) ReplicaSet(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(hashKey(key)); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// WithNode derives a ring with node added. Only keys that the new node
// now owns move; everything else keeps its owner — the consistent-hash
// contract that keeps a membership change from reshuffling the cluster.
func (r *Ring) WithNode(node string) *Ring {
	return NewRing(append(r.Nodes(), node))
}

// WithoutNode derives a ring with node removed; only that node's keys
// move, each to its clockwise successor.
func (r *Ring) WithoutNode(node string) *Ring {
	rest := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			rest = append(rest, n)
		}
	}
	return NewRing(rest)
}
