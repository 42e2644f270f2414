package core

import "roadknn/internal/graph"

// ilTable is the influence-list side of the paper's edge table ET: for each
// edge, the set of monitors (direct queries and active nodes alike) whose
// current k-NN region touches the edge.
//
// The paper stores explicit influencing intervals per (edge, query) pair.
// Here the interval test "does position p fall inside q's influencing
// interval of edge e?" is evaluated by the equivalent O(1) predicate
// monitor.distanceTo(p) <= q.kNN_dist, using the query's live expansion
// tree; the table therefore only needs the edge -> query membership sets,
// stored as small unordered slices (regions touch few queries each, and
// slice iteration is much cheaper than map iteration on the hot
// update-classification path). The slices hold the monitors themselves, so
// routing an update costs no lookup by key. Grouped queries do store their
// intervals, but not here: they never leave the query's sequence, whose
// query list is the grouped side's influence list (grouped.go).
type ilTable struct {
	byEdge [][]*monitor
}

func newILTable(numEdges int) *ilTable {
	return &ilTable{byEdge: make([][]*monitor, numEdges)}
}

// grow extends the table to cover numEdges edge ids (live topology editing
// appends ids; tombstoned ids keep their — eventually emptied — rows).
func (t *ilTable) grow(numEdges int) {
	for len(t.byEdge) < numEdges {
		t.byEdge = append(t.byEdge, nil)
	}
}

func (t *ilTable) add(e graph.EdgeID, q *monitor) {
	t.byEdge[e] = append(t.byEdge[e], q)
}

func (t *ilTable) remove(e graph.EdgeID, q *monitor) {
	l := t.byEdge[e]
	for i, x := range l {
		if x == q {
			last := len(l) - 1
			l[i], l[last] = l[last], nil // the vacated slot must not pin q
			t.byEdge[e] = l[:last]
			return
		}
	}
}

// entries returns the total number of (edge, query) registrations.
func (t *ilTable) entries() int {
	n := 0
	for _, l := range t.byEdge {
		n += len(l)
	}
	return n
}
