package core

import "roadknn/internal/graph"

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
// friendly bulk prunes) and indexed by an open-addressing hash table keyed
// by node id (O(1) membership/lookup, zero allocations at steady state —
// the replacement for the former map[graph.NodeID]treeNode).
//
// Deletion uses swap-remove on the entry array and backward-shift deletion
// on the index, so the table never accumulates tombstones under the heavy
// prune/re-expand churn of IMA. Iterate entries() backwards when deleting
// while iterating.
type treeStore struct {
	entries []treeEntry
	idxKey  []graph.NodeID // open addressing; NoNode marks an empty slot
	idxVal  []int32        // entry index for the key in idxKey
	mask    uint32         // len(idxKey)-1; table size is a power of two
}

const treeStoreMinTable = 16

func (t *treeStore) init() {
	if t.idxKey != nil {
		return
	}
	t.idxKey = make([]graph.NodeID, treeStoreMinTable)
	t.idxVal = make([]int32, treeStoreMinTable)
	for i := range t.idxKey {
		t.idxKey[i] = graph.NoNode
	}
	t.mask = treeStoreMinTable - 1
}

// hash spreads node ids multiplicatively (Fibonacci hashing); ids are dense
// so any odd multiplier de-clusters neighboring nodes well.
func treeHash(n graph.NodeID) uint32 { return uint32(n) * 2654435761 }

func (t *treeStore) len() int { return len(t.entries) }

// entriesSlice exposes the dense entries for iteration. The slice is owned
// by the store; entries move under put/delete (swap-remove), so delete only
// at or above the current iteration index (iterate backwards).
func (t *treeStore) entriesSlice() []treeEntry { return t.entries }

// lookup returns the entry index of n, or -1.
func (t *treeStore) lookup(n graph.NodeID) int32 {
	if t.idxKey == nil {
		return -1
	}
	for i := treeHash(n) & t.mask; ; i = (i + 1) & t.mask {
		k := t.idxKey[i]
		if k == n {
			return t.idxVal[i]
		}
		if k == graph.NoNode {
			return -1
		}
	}
}

// has reports whether n is in the tree.
func (t *treeStore) has(n graph.NodeID) bool { return t.lookup(n) >= 0 }

// get returns n's entry by value; ok is false (and the entry zero) when n
// is absent — mirroring the former map semantics.
func (t *treeStore) get(n graph.NodeID) (treeEntry, bool) {
	if i := t.lookup(n); i >= 0 {
		return t.entries[i], true
	}
	return treeEntry{}, false
}

// at returns a pointer to the entry at index i, valid until the next
// put/delete.
func (t *treeStore) at(i int) *treeEntry { return &t.entries[i] }

// put inserts or overwrites node n's entry.
func (t *treeStore) put(n graph.NodeID, dist float64, parent graph.NodeID, parentEdge graph.EdgeID) {
	t.init()
	for i := treeHash(n) & t.mask; ; i = (i + 1) & t.mask {
		switch t.idxKey[i] {
		case n:
			e := &t.entries[t.idxVal[i]]
			e.dist, e.parent, e.parentEdge = dist, parent, parentEdge
			return
		case graph.NoNode:
			t.idxKey[i] = n
			t.idxVal[i] = int32(len(t.entries))
			t.entries = append(t.entries, treeEntry{node: n, dist: dist, parent: parent, parentEdge: parentEdge})
			if uint32(len(t.entries))*4 > uint32(len(t.idxKey))*3 {
				t.grow()
			}
			return
		}
	}
}

// deleteAt removes the entry at index i by swap-remove, fixing the index
// entries of both the removed and the moved node.
func (t *treeStore) deleteAt(i int) {
	n := t.entries[i].node
	last := len(t.entries) - 1
	if i != last {
		t.entries[i] = t.entries[last]
		t.setIdx(t.entries[i].node, int32(i))
	}
	t.entries = t.entries[:last]
	t.idxDelete(n)
}

// clear empties the store, retaining capacity.
func (t *treeStore) clear() {
	t.entries = t.entries[:0]
	for i := range t.idxKey {
		t.idxKey[i] = graph.NoNode
	}
}

// setIdx updates the entry index of an existing key.
func (t *treeStore) setIdx(n graph.NodeID, v int32) {
	for i := treeHash(n) & t.mask; ; i = (i + 1) & t.mask {
		if t.idxKey[i] == n {
			t.idxVal[i] = v
			return
		}
	}
}

// idxDelete removes key n from the open-addressing table with backward-
// shift deletion: subsequent probe-chain entries that would become
// unreachable through the vacated slot are shifted into it.
func (t *treeStore) idxDelete(n graph.NodeID) {
	i := treeHash(n) & t.mask
	for t.idxKey[i] != n {
		i = (i + 1) & t.mask
	}
	for {
		t.idxKey[i] = graph.NoNode
		j := i
		for {
			j = (j + 1) & t.mask
			k := t.idxKey[j]
			if k == graph.NoNode {
				return
			}
			// k may fill the hole at i only if its home slot does not lie
			// in the (cyclic) open interval (i, j] — otherwise the probe
			// chain from home to j would still pass through i.
			home := treeHash(k) & t.mask
			if cyclicBetween(i, home, j) {
				continue
			}
			t.idxKey[i] = k
			t.idxVal[i] = t.idxVal[j]
			i = j
			break
		}
	}
}

// cyclicBetween reports whether home lies in the cyclic interval (i, j].
func cyclicBetween(i, home, j uint32) bool {
	if i <= j {
		return i < home && home <= j
	}
	return i < home || home <= j
}

// grow doubles the index table and rehashes.
func (t *treeStore) grow() {
	size := uint32(len(t.idxKey)) * 2
	key := make([]graph.NodeID, size)
	val := make([]int32, size)
	for i := range key {
		key[i] = graph.NoNode
	}
	mask := size - 1
	for ei := range t.entries {
		n := t.entries[ei].node
		i := treeHash(n) & mask
		for key[i] != graph.NoNode {
			i = (i + 1) & mask
		}
		key[i] = n
		val[i] = int32(ei)
	}
	t.idxKey, t.idxVal, t.mask = key, val, mask
}
