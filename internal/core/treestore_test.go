package core

import (
	"math/rand"
	"testing"

	"roadknn/internal/graph"
)

// TestTreeStoreMatchesMap fuzzes treeStore against a reference map through
// random insert/overwrite/delete/clear churn, checking full contents after
// every operation batch. This exercises the open-addressing backward-shift
// deletion, swap-remove entry packing, and table growth.
func TestTreeStoreMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var ts treeStore
	ref := map[graph.NodeID]treeEntry{}

	check := func(op int) {
		t.Helper()
		if ts.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", op, ts.len(), len(ref))
		}
		for n, want := range ref {
			got, ok := ts.get(n)
			if !ok || got != want {
				t.Fatalf("op %d: get(%d) = (%+v,%v), want %+v", op, n, got, ok, want)
			}
		}
		seen := map[graph.NodeID]bool{}
		for _, e := range ts.entriesSlice() {
			if seen[e.node] {
				t.Fatalf("op %d: duplicate entry for node %d", op, e.node)
			}
			seen[e.node] = true
			if _, ok := ref[e.node]; !ok {
				t.Fatalf("op %d: stray entry for node %d", op, e.node)
			}
		}
	}

	const universe = 200
	for op := 0; op < 30000; op++ {
		n := graph.NodeID(rng.Intn(universe))
		switch r := rng.Intn(100); {
		case r < 55: // put, or overwrite in place
			e := treeEntry{node: n, dist: rng.Float64(), parent: graph.NodeID(rng.Intn(universe)), parentEdge: graph.EdgeID(rng.Intn(universe))}
			if i, ok := ts.idx.Get(int32(n)); ok {
				*ts.at(int(i)) = e
			} else {
				ts.put(n, e.dist, e.parent, e.parentEdge)
			}
			ref[n] = e
		case r < 90: // delete by node
			if i, ok := ts.idx.Get(int32(n)); ok {
				ts.deleteAt(int(i))
			}
			delete(ref, n)
		case r < 97: // delete by index (swap-remove path)
			if ts.len() > 0 {
				i := rng.Intn(ts.len())
				node := ts.entriesSlice()[i].node
				ts.deleteAt(i)
				delete(ref, node)
			}
		default:
			ts.clear()
			clear(ref)
		}
		if op%37 == 0 {
			check(op)
		}
	}
	check(-1)

	// Membership probes on absent keys must not loop or false-positive.
	for n := graph.NodeID(universe); n < universe+50; n++ {
		if ts.has(n) {
			t.Fatalf("has(%d) = true for never-inserted node", n)
		}
	}
}
