package replication

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Model-%04d", i)
	}
	return out
}

// TestRingBalance pins the load-spread bound the vnode count buys: with
// 3 nodes and 1000 keys no node owns less than half or more than double
// its fair share.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"})
	counts := map[string]int{}
	ks := keys(1000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	fair := len(ks) / r.Len()
	for _, n := range r.Nodes() {
		if c := counts[n]; c < fair/2 || c > fair*2 {
			t.Fatalf("node %s owns %d of %d keys (fair share %d): balance out of bounds %+v", n, c, len(ks), fair, counts)
		}
	}
}

// TestRingMinimalReassignment is the consistent-hashing contract: a
// membership change only moves keys touching the changed node.
func TestRingMinimalReassignment(t *testing.T) {
	base := NewRing([]string{"n1", "n2", "n3"})
	ks := keys(1000)

	grown := base.WithNode("n4")
	moved := 0
	for _, k := range ks {
		was, is := base.Owner(k), grown.Owner(k)
		if was != is {
			moved++
			if is != "n4" {
				t.Fatalf("key %s moved %s -> %s on join of n4: a join may only move keys to the joiner", k, was, is)
			}
		}
	}
	// n4's fair share is a quarter; far less than half must move.
	if moved == 0 || moved > len(ks)/2 {
		t.Fatalf("join moved %d of %d keys", moved, len(ks))
	}

	shrunk := base.WithoutNode("n2")
	for _, k := range ks {
		was, is := base.Owner(k), shrunk.Owner(k)
		if was != "n2" && was != is {
			t.Fatalf("key %s moved %s -> %s on leave of n2: a leave may only move the leaver's keys", k, was, is)
		}
		if is == "n2" {
			t.Fatalf("key %s still owned by the removed node", k)
		}
	}
}

// TestRingOwnerDeterministic: two independently built rings over the
// same membership agree on every owner — nodes can compute routing
// locally with no coordination.
func TestRingOwnerDeterministic(t *testing.T) {
	a := NewRing([]string{"n3", "n1", "n2"})
	b := NewRing([]string{"n2", "n2", "n1", "n3", ""})
	for _, k := range keys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings over identical membership disagree on %s: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestReplicaSet(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"})
	for _, k := range keys(50) {
		set := r.ReplicaSet(k, 2)
		if len(set) != 2 {
			t.Fatalf("ReplicaSet(%s, 2) = %v", k, set)
		}
		if set[0] != r.Owner(k) {
			t.Fatalf("ReplicaSet(%s) does not lead with the primary: %v vs %s", k, set, r.Owner(k))
		}
		if set[0] == set[1] {
			t.Fatalf("ReplicaSet(%s) repeats a node: %v", k, set)
		}
		// n <= 0 means full replication.
		if full := r.ReplicaSet(k, 0); len(full) != 3 {
			t.Fatalf("ReplicaSet(%s, 0) = %v, want all 3 nodes", k, full)
		}
		// n beyond membership clamps.
		if over := r.ReplicaSet(k, 99); len(over) != 3 {
			t.Fatalf("ReplicaSet(%s, 99) = %v", k, over)
		}
	}
}

// TestRingJoinMovesFairShare tightens the reassignment bound dynamic
// membership will rely on: a join moves roughly the joiner's fair share
// of keys — not just "fewer than half".
func TestRingJoinMovesFairShare(t *testing.T) {
	base := NewRing([]string{"n1", "n2", "n3"})
	ks := keys(2000)
	grown := base.WithNode("n4")
	moved := 0
	for _, k := range ks {
		if base.Owner(k) != grown.Owner(k) {
			moved++
		}
	}
	// n4's fair share is a quarter of the keyspace; the vnode spread
	// keeps the real figure within [fair/2, 2*fair].
	fair := len(ks) / grown.Len()
	if moved < fair/2 || moved > fair*2 {
		t.Fatalf("join of n4 moved %d of %d keys, want within [%d, %d] of the fair share %d",
			moved, len(ks), fair/2, fair*2, fair)
	}
}

// TestRingBalanceAfterMembershipChange: the balance bound holds not just
// on freshly built rings but across WithNode/WithoutNode transitions —
// the rings dynamic membership actually routes on.
func TestRingBalanceAfterMembershipChange(t *testing.T) {
	ks := keys(2000)
	assertBalanced := func(r *Ring, label string) {
		t.Helper()
		counts := map[string]int{}
		for _, k := range ks {
			counts[r.Owner(k)]++
		}
		fair := len(ks) / r.Len()
		for _, n := range r.Nodes() {
			if c := counts[n]; c < fair/2 || c > fair*2 {
				t.Fatalf("%s: node %s owns %d of %d keys (fair %d): %+v", label, n, c, len(ks), fair, counts)
			}
		}
	}
	base := NewRing([]string{"n1", "n2", "n3"})
	assertBalanced(base.WithNode("n4"), "after join of n4")
	assertBalanced(base.WithoutNode("n2"), "after leave of n2")
	// A join then a leave of the same node routes identically to never
	// having seen it — membership changes are self-inverse.
	back := base.WithNode("n4").WithoutNode("n4")
	for _, k := range ks {
		if base.Owner(k) != back.Owner(k) {
			t.Fatalf("join+leave of n4 changed ownership of %s: %s -> %s", k, base.Owner(k), back.Owner(k))
		}
	}
	// No-op transitions: joining a member and removing a stranger leave
	// the ring untouched.
	if same := base.WithNode("n2"); same.Len() != base.Len() {
		t.Fatalf("WithNode of an existing member changed membership: %v", same.Nodes())
	}
	if same := base.WithoutNode("nX"); same.Len() != base.Len() {
		t.Fatalf("WithoutNode of a stranger changed membership: %v", same.Nodes())
	}
}

func TestEmptyRing(t *testing.T) {
	r := NewRing(nil)
	if r.Owner("anything") != "" || r.ReplicaSet("anything", 3) != nil || r.Len() != 0 {
		t.Fatal("empty ring must own nothing")
	}
	one := r.WithNode("solo")
	if one.Owner("anything") != "solo" {
		t.Fatal("single-node ring must own everything")
	}
}
