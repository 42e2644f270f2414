package core

import (
	"roadknn/internal/graph"
	"roadknn/internal/idtable"
)

// treeEntry is one verified node of an expansion tree in the dense store:
// the node itself, its exact network distance from the query, and the
// parent node/edge on the shortest path (parent == NoNode for children of
// the root, reached directly along the query's own edge).
type treeEntry struct {
	node       graph.NodeID
	parent     graph.NodeID
	parentEdge graph.EdgeID
	dist       float64
}

// treeStore holds a monitor's expansion tree in a flat struct-of-arrays
// layout: entries are packed densely (cheap deterministic iteration, cache-
// friendly bulk prunes) and indexed by node id in an idtable.Map from node
// to entry index (O(1) membership/lookup, zero allocations at steady state).
//
// Deletion swap-removes from the entry array and deletes from the index,
// which shifts back rather than leaving tombstones, so the index stays
// clean under the heavy prune/re-expand churn of IMA. Iterate entries()
// backwards when deleting while iterating.
type treeStore struct {
	entries []treeEntry
	idx     idtable.Map[int32] // node -> its index in entries
}

func (t *treeStore) len() int { return len(t.entries) }

// entriesSlice exposes the dense entries for iteration. The slice is owned
// by the store; entries move under put/delete (swap-remove), so delete only
// at or above the current iteration index (iterate backwards).
func (t *treeStore) entriesSlice() []treeEntry { return t.entries }

// has reports whether n is in the tree.
func (t *treeStore) has(n graph.NodeID) bool {
	_, ok := t.idx.Get(int32(n))
	return ok
}

// get returns n's entry by value; ok is false (and the entry zero) when n
// is absent — mirroring the former map semantics.
func (t *treeStore) get(n graph.NodeID) (treeEntry, bool) {
	if i, ok := t.idx.Get(int32(n)); ok {
		return t.entries[i], true
	}
	return treeEntry{}, false
}

// at returns a pointer to the entry at index i, valid until the next
// put/delete.
func (t *treeStore) at(i int) *treeEntry { return &t.entries[i] }

// put appends node n, which must be absent, as a new entry.
func (t *treeStore) put(n graph.NodeID, dist float64, parent graph.NodeID, parentEdge graph.EdgeID) {
	t.idx.Put(int32(n), int32(len(t.entries)))
	t.entries = append(t.entries, treeEntry{node: n, dist: dist, parent: parent, parentEdge: parentEdge})
}

// deleteAt removes the entry at index i by swap-remove, re-pointing the
// index at the moved node.
func (t *treeStore) deleteAt(i int) {
	t.idx.Delete(int32(t.entries[i].node))
	last := len(t.entries) - 1
	if i != last {
		t.entries[i] = t.entries[last]
		t.idx.Put(int32(t.entries[i].node), int32(i))
	}
	t.entries = t.entries[:last]
}

// clear empties the store, retaining capacity.
func (t *treeStore) clear() {
	t.entries = t.entries[:0]
	t.idx.Clear()
}
