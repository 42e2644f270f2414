package core

import (
	"math"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// monitor is the per-query state of IMA (paper §3-§4): the query's position
// and k, its current result and kNN_dist, and its expansion tree — the
// shortest paths from the query to every node within kNN_dist. The active
// nodes behind grouped queries (§5) are monitors too.
//
// Invariants between timestamps:
//
//  1. the tree entry of n holds the exact network distance from pos to n
//     for every tree node n, and every node with true distance < kNN_dist
//     is in the tree;
//  2. cand is exact and complete below cover: every object at true distance
//     below cand.cover >= kdist is in it, at that distance, and past its first k
//     entries it holds nothing at or beyond cover. result is those
//     first k entries (fewer only when fewer are reachable) and kdist the
//     k-th distance (+Inf when short). cover is what the search has
//     provably seen: at most the smallest key left on the frontier when the
//     last expansion stopped (+Inf when the heap ran dry), the smallest
//     distance pruned from the tree or dropped from cand for capacity
//     since, and the distance of any tree node whose edges invariant 3
//     leaves unregistered. The edge-weight handlers and onMove drop it
//     to kdist;
//  3. affEdges is exactly the set of edges with a tree endpoint closer than
//     kdist (ilKdist while the lazy shrink lags), plus the query's own
//     edge, mirrored into the influence table. Every point closer than
//     cover lies on such an edge: the node its shortest path enters the
//     edge through is closer still, so it is verified and — by the last
//     clause of 2 — registered. Updates beyond kdist therefore reach the
//     reserve without any wider registration.
//
// During update processing the invariants are deliberately broken by the
// pruning operations (onEdgeDecrease, onEdgeIncrease, onMove) and restored
// by finalize.
//
// All transient expansion state (frontier heap, tentative parents, subtree
// marks) lives in the scratch arena threaded through the mutating methods;
// only the tree, the candidates and the influence registrations persist
// across timestamps.
type monitor struct {
	net *roadnet.Network
	il  *ilTable // the owning engine's influence table

	// id is the QueryID of a direct monitor, the NodeID of a node monitor.
	// Nothing is looked up by it: it names the monitor and, with track,
	// orders it (order).
	id   int32
	k    int
	pos  roadnet.Position
	cand candStore
	// track makes step report this monitor when its result changed: set on
	// node monitors, whose changes wake their dependent grouped queries.
	track bool
	// at is the monitor's index in its set's list.
	at int32
	// result is cand's first k keys as the last finalize left them; kdist
	// mirrors cand.kth.
	result []Neighbor
	kdist  float64

	// tree is the expansion tree in the dense flat layout (treestore.go).
	tree treeStore
	// affEdges is the sorted list of edges currently registered in the
	// influence table for this query.
	affEdges []graph.EdgeID

	needRecompute bool // tree discarded; compute from scratch at finalize
	needFinalize  bool // tree pruned or result dirtied; restore at finalize
	needExpand    bool // coverage may have grown; re-search from the marks
	// fullRefresh forces re-derivation of every candidate distance: set by
	// the edge/move handlers, whose effects are not attributable to
	// individual objects. Object-only timestamps re-derive just the moved
	// objects.
	fullRefresh bool
	// treeDirty records that the tree's node set changed since the last
	// influence-list rebuild.
	treeDirty bool
	// ilKdist is the kNN_dist the influence lists were last rebuilt for.
	// While kdist stays within (ilKdist/2, ilKdist] and the tree is
	// untouched, the registered (wider) region remains a correct
	// over-approximation and the rebuild is skipped.
	ilKdist float64
	// slack bounds how much any tree distance or affecting weight may have
	// dropped since the last finalize (summed edge-weight decreases plus
	// query-move shifts). The fully-covered-edge test in reexpand charges
	// 1.5*slack against the previous kNN_dist so it stays sound under
	// current values; weight increases only make the test stricter.
	slack float64
	// floor bounds from below the current distance of every node a weight
	// decrease pruned from the tree in the running step (+Inf when none
	// was). Before the step a node outside the tree lies beyond every tree
	// node; after a prune it may lie closer than some, though not closer
	// than floor.
	floor float64
	// pendingEdges lists the non-tree edges whose weight changed: the
	// objects on them are re-derived at finalize.
	pendingEdges []graph.EdgeID
	// touched accumulates the objects classified into this monitor during
	// the running step; consumed and reset by its finalize.
	touched []touch
	// stamp marks the monitor as reached in step number stamp of its set;
	// slot is then its index in the step's work list.
	stamp uint64
	slot  int32

	// ilDefer, when set, redirects influence-table writes into the given
	// buffer instead of mutating the shared table: a sharded step points it
	// at the monitor's work entry around finalize so that workers never
	// write shared state (the buffered ops are applied when they are done).
	ilDefer *[]ilOp
}

// touch is one object classified against a monitor this timestamp: the edge
// the route stage saw it arrive on and its distance from the query there
// (+Inf once deleted), which the classifier computed on the tree finalize
// starts from, so that finalize re-derives it without asking the object
// registry or the tree. An entry is 16 bytes.
type touch struct {
	obj  roadnet.ObjectID
	edge graph.EdgeID // goneEdge for a deleted object, lateEdge when only the registry knows
	dist float64
}

const (
	goneEdge = graph.NoEdge
	// lateEdge defers to the registry: in a timestamp that reports some
	// object twice (or re-snaps objects off removed edges) a position in
	// hand may not be the object's last.
	lateEdge graph.EdgeID = -2
)

// ilAdd registers edge e for this monitor in the influence table, or defers
// the write while ilDefer is set.
func (m *monitor) ilAdd(e graph.EdgeID) {
	if m.ilDefer != nil {
		*m.ilDefer = append(*m.ilDefer, ilOp{add: true, edge: e})
		return
	}
	m.il.add(e, m)
}

// ilRemove is the removal counterpart of ilAdd.
func (m *monitor) ilRemove(e graph.EdgeID) {
	if m.ilDefer != nil {
		*m.ilDefer = append(*m.ilDefer, ilOp{edge: e})
		return
	}
	m.il.remove(e, m)
}

// order is the total order over a set's monitors wherever one is needed (the
// shard order of a sharded finish, rebuildAll): direct monitors by QueryID,
// then node monitors by NodeID.
func (m *monitor) order() int64 {
	if m.track {
		return 1<<32 + int64(m.id)
	}
	return int64(m.id)
}

func newMonitor(net *roadnet.Network, il *ilTable, id int32, pos roadnet.Position, k int) *monitor {
	if k <= 0 {
		panic("core: query k must be positive")
	}
	m := &monitor{net: net, il: il, id: id, k: k, pos: pos, kdist: math.Inf(1), floor: math.Inf(1)}
	m.cand.reset(k)
	return m
}

// reset re-initializes a pooled monitor for a fresh registration, retaining
// every buffer (tree storage, candidate set, influence list). The caller
// must run computeInitial before the monitor is consulted.
func (m *monitor) reset(id int32, pos roadnet.Position, k int) {
	if k <= 0 {
		panic("core: query k must be positive")
	}
	m.id, m.pos, m.k = id, pos, k
	m.cand.reset(k)
	m.tree.clear()
	m.result = nil
	m.kdist = math.Inf(1)
	m.affEdges = m.affEdges[:0] // clearIL already emptied the table side
	m.needRecompute, m.needFinalize, m.needExpand = false, false, false
	m.fullRefresh, m.treeDirty = false, false
	m.ilKdist = 0
	m.slack, m.floor = 0, math.Inf(1)
	m.pendingEdges = m.pendingEdges[:0]
	m.touched = m.touched[:0]
	m.stamp = 0
	m.ilDefer = nil
}

// distanceTo returns the network distance from the query to p, exact
// whenever p lies within the tree's coverage; outside coverage it returns
// an upper bound (possibly +Inf). Every returned finite value is the
// length of a real path.
func (m *monitor) distanceTo(p roadnet.Position) float64 {
	e := m.net.G.Edge(p.Edge)
	dU, dV := m.ends(e)
	d := throughEnds(e, dU, dV, p.Frac)
	if p.Edge == m.pos.Edge {
		if direct := roadnet.ArcCost(e, p.Frac, m.pos.Frac); direct < d {
			d = direct
		}
	}
	return d
}

// ends returns the tree distances of e's endpoints, +Inf for one outside
// the tree: what distanceTo derives a distance to a point of e from. The
// step's classifier reads them once per edge run and monitor.
func (m *monitor) ends(e *graph.Edge) (dU, dV float64) {
	dU, dV = math.Inf(1), math.Inf(1)
	if tn, ok := m.tree.get(e.U); ok {
		dU = tn.dist
	}
	if tn, ok := m.tree.get(e.V); ok {
		dV = tn.dist
	}
	return dU, dV
}

// throughEnds is the distance to the point at fraction f of e by way of an
// endpoint, the nearer of those at dU and dV (ends); +Inf when neither is in
// the tree.
func throughEnds(e *graph.Edge, dU, dV, f float64) float64 {
	d := dU + roadnet.CostFromU(e, f)
	if alt := dV + roadnet.CostFromV(e, f); alt < d {
		d = alt
	}
	return d
}

// inRegion reports whether p falls inside the query's influence region, i.e.
// inside an influencing interval of some affecting edge: where a query may
// move to and keep part of its tree.
func (m *monitor) inRegion(p roadnet.Position) bool {
	return m.distanceTo(p) <= m.kdist
}

// dropReserve gives up what cand holds past the k-th: the handlers that
// change a weight or a tree distance call it, after which cand vouches for
// nothing beyond kdist until the next expansion.
func (m *monitor) dropReserve() {
	m.cand.lowerCover(m.kdist)
	m.cand.trim()
}

// computeInitial runs the paper's Figure-2 algorithm: a bounded network
// expansion around the query that fills the result, the expansion tree and
// the influence lists from scratch. It reports whether the result changed.
func (m *monitor) computeInitial(sc *scratch) bool {
	m.tree.clear()
	m.cand.reset(m.k)
	m.needRecompute = false
	m.needFinalize = false
	m.needExpand = false
	m.fullRefresh = false
	m.slack, m.floor = 0, math.Inf(1)
	m.pendingEdges = m.pendingEdges[:0]

	e := m.net.G.Edge(m.pos.Edge)
	for _, oe := range m.net.ObjectsOn(m.pos.Edge) {
		m.cand.add(oe.ID, roadnet.ArcCost(e, oe.Frac, m.pos.Frac), m.pos.Edge)
	}
	sc.heap.Reset()
	sc.heap.Push(int32(e.U), roadnet.CostFromU(e, m.pos.Frac))
	sc.tentParent[e.U], sc.tentEdge[e.U] = graph.NoNode, m.pos.Edge
	sc.heap.Push(int32(e.V), roadnet.CostFromV(e, m.pos.Frac))
	sc.tentParent[e.V], sc.tentEdge[e.V] = graph.NoNode, m.pos.Edge

	m.runExpansion(sc)
	m.kdist = m.cand.kth()
	m.pruneToKdist()
	m.rebuildIL(sc)
	var changed bool
	m.result, changed = m.cand.finalize()
	return changed
}

// runExpansion continues a Dijkstra expansion: it pops nodes from the heap
// while their key is at most the moving bound kNN_dist, verifying each
// popped node (inserting it into the tree) and scanning the objects on its
// incident edges. A node at exactly kNN_dist is verified too: an object
// sitting on it ties with the k-th, and the smaller id ranks first.
// Already-verified nodes are never re-verified. The key it stops at is the
// nearest thing not seen: cover. It returns the number of nodes verified.
func (m *monitor) runExpansion(sc *scratch) int {
	g := m.net.G
	verified := 0
	for {
		ni, d, ok := sc.heap.PopMin()
		if !ok {
			break
		}
		if d > m.cand.kth() {
			m.cand.lowerCover(d)
			break
		}
		n := graph.NodeID(ni)
		if m.tree.has(n) {
			continue
		}
		m.tree.put(n, d, sc.tentParent[n], sc.tentEdge[n])
		m.treeDirty = true
		verified++
		for _, eid := range g.Incident(n) {
			e := g.Edge(eid)
			nadj := e.Other(n)
			for _, oe := range m.net.ObjectsOn(eid) {
				m.cand.add(oe.ID, d+roadnet.CostFrom(e, n, oe.Frac), eid)
			}
			if !m.tree.has(nadj) {
				if sc.heap.Push(int32(nadj), d+e.W) {
					sc.tentParent[nadj], sc.tentEdge[nadj] = n, eid
				}
			}
		}
	}
	sc.stats.NodesVerified += verified
	return verified
}

// reexpand resumes the expansion from the current tree frontier — the
// paper's "initialize the heap to the marks of the valid tree and consider
// its nodes verified" (§4.2, Fig. 10 lines 22-25).
//
// Edges fully inside cover (every point within it, under current weights
// and tree distances) hold only objects that are already candidates, so
// only partially covered edges — the edges carrying marks — are rescanned.
// cover itself starts over: the frontier is rebuilt here, and whatever was
// dropped beyond the old cover lies on an edge this rescans or past a node
// it can still verify; the caller caps it at the tree nodes it leaves
// unregistered. It returns the number of nodes verified.
func (m *monitor) reexpand(sc *scratch) int {
	g := m.net.G
	sc.heap.Reset()
	// Distances and weights may have dropped by at most slack each since
	// the scans cover vouches for.
	seen := m.cand.cover - 1.5*m.slack
	m.cand.cover = math.Inf(1)

	e := g.Edge(m.pos.Edge)
	for _, oe := range m.net.ObjectsOn(m.pos.Edge) {
		m.cand.add(oe.ID, roadnet.ArcCost(e, oe.Frac, m.pos.Frac), m.pos.Edge)
	}
	if !m.tree.has(e.U) {
		sc.heap.Push(int32(e.U), roadnet.CostFromU(e, m.pos.Frac))
		sc.tentParent[e.U], sc.tentEdge[e.U] = graph.NoNode, m.pos.Edge
	}
	if !m.tree.has(e.V) {
		sc.heap.Push(int32(e.V), roadnet.CostFromV(e, m.pos.Frac))
		sc.tentParent[e.V], sc.tentEdge[e.V] = graph.NoNode, m.pos.Edge
	}
	entries := m.tree.entriesSlice()
	for i := range entries {
		n, nDist := entries[i].node, entries[i].dist
		for _, eid := range g.Incident(n) {
			ed := g.Edge(eid)
			nadj := ed.Other(n)
			covered := false
			if tnAdj, ok := m.tree.get(nadj); ok && eid != m.pos.Edge {
				// The farthest point of an edge reached from both endpoints
				// lies at (du+dv+w)/2; below cover, the edge was fully
				// scanned before and its objects are already candidates.
				covered = (nDist+tnAdj.dist+ed.W)/2 < seen
			}
			if !covered {
				for _, oe := range m.net.ObjectsOn(eid) {
					m.cand.add(oe.ID, nDist+roadnet.CostFrom(ed, n, oe.Frac), eid)
				}
			}
			if !m.tree.has(nadj) {
				if sc.heap.Push(int32(nadj), nDist+ed.W) {
					sc.tentParent[nadj], sc.tentEdge[nadj] = n, eid
				}
			}
		}
	}
	return m.runExpansion(sc)
}

// frontierMin returns the smallest key a re-expansion heap would start
// with: the distance of the nearest unverified node reachable from the
// tree (or directly from the query). It is the distance of the nearest
// "mark" in the paper's terms.
func (m *monitor) frontierMin() float64 {
	g := m.net.G
	best := math.Inf(1)
	e := g.Edge(m.pos.Edge)
	if !m.tree.has(e.U) {
		best = math.Min(best, roadnet.CostFromU(e, m.pos.Frac))
	}
	if !m.tree.has(e.V) {
		best = math.Min(best, roadnet.CostFromV(e, m.pos.Frac))
	}
	entries := m.tree.entriesSlice()
	for i := range entries {
		n, nDist := entries[i].node, entries[i].dist
		for _, eid := range g.Incident(n) {
			ed := g.Edge(eid)
			if !m.tree.has(ed.Other(n)) {
				if d := nDist + ed.W; d < best {
					best = d
				}
			}
		}
	}
	return best
}

// pruneToKdist trims tree nodes farther than kNN_dist — the paper's tree
// shrink after the result contracts (§4.2) or after a search leaves parts
// of the tree beyond the new kNN_dist (§4.5 line 26).
func (m *monitor) pruneToKdist() {
	if math.IsInf(m.kdist, 1) {
		return
	}
	for i := m.tree.len() - 1; i >= 0; i-- {
		if d := m.tree.at(i).dist; d > m.kdist {
			m.cand.lowerCover(d) // back on the frontier
			m.tree.deleteAt(i)
			m.treeDirty = true
		}
	}
}

// computeSubtree marks, in sc's subtree set, every tree node whose path
// from the query passes through node b (b included); callers test
// membership with sc.inSub. It replaces the former map-returning subtreeOf
// with epoch-stamped arena state.
func (m *monitor) computeSubtree(b graph.NodeID, sc *scratch) {
	sc.beginSub()
	sc.beginMemo()
	sc.memoSet(b, true)
	sc.markSub(b)
	entries := m.tree.entriesSlice()
	for i := range entries {
		if m.classifySub(entries[i].node, sc) {
			sc.markSub(entries[i].node)
		}
	}
}

// classifySub walks n's parent chain up to the first memoized node (or the
// root) and memoizes the whole chain with the answer.
func (m *monitor) classifySub(n graph.NodeID, sc *scratch) bool {
	st := sc.stack[:0]
	cur := n
	v := false
	for {
		if val, known := sc.memoGet(cur); known {
			v = val
			break
		}
		st = append(st, cur)
		tn, _ := m.tree.get(cur) // absent -> zero entry, as with the old map
		if tn.parent == graph.NoNode {
			v = false
			break
		}
		cur = tn.parent
	}
	for _, x := range st {
		sc.memoSet(x, v)
	}
	sc.stack = st[:0]
	return v
}

// rebuildIL recomputes the set of affecting edges and diffs it against the
// influence table: the edges with a tree endpoint at most kNN_dist away,
// the query's own edge, and the edges of the candidates at exactly
// kNN_dist. Every neighbor lies on one of them, so its departure reaches
// the monitor. The last clause covers a neighbor sitting on a node at
// exactly kNN_dist (frac 0 or 1 of its edge) that is no longer in the tree:
// a prune can drop the node, and the expansion that follows stops at
// kNN_dist without verifying it again. A candidate past the k-th that ties
// with it counts too: it becomes a neighbor, with kNN_dist unchanged and so
// without a rebuild, when the k-th departs. The new list is built in the
// worker's sc.aff and copied into affEdges.
func (m *monitor) rebuildIL(sc *scratch) {
	g := m.net.G
	newAff := sc.aff[:0]
	newAff = append(newAff, m.pos.Edge)
	entries := m.tree.entriesSlice()
	for i := range entries {
		d := entries[i].dist
		if d >= m.kdist {
			m.cand.lowerCover(d) // invariant 2, last clause
		}
		if d > m.kdist {
			continue
		}
		newAff = append(newAff, g.Incident(entries[i].node)...)
	}
	for i, nb := range m.cand.nb {
		if nb.Dist > m.kdist {
			break
		}
		if nb.Dist == m.kdist {
			newAff = append(newAff, m.cand.edges[i])
		}
	}
	slices.Sort(newAff)
	newAff = slices.Compact(newAff)
	// Two-pointer diff against the previous sorted registration list.
	i, j := 0, 0
	for i < len(m.affEdges) || j < len(newAff) {
		switch {
		case j == len(newAff) || (i < len(m.affEdges) && m.affEdges[i] < newAff[j]):
			m.ilRemove(m.affEdges[i])
			i++
		case i == len(m.affEdges) || newAff[j] < m.affEdges[i]:
			m.ilAdd(newAff[j])
			j++
		default:
			i++
			j++
		}
	}
	m.affEdges = append(m.affEdges[:0], newAff...)
	sc.aff = newAff
	m.ilKdist = m.kdist
	m.treeDirty = false
}

// clearIL removes all influence registrations (query termination).
func (m *monitor) clearIL() {
	for _, eid := range m.affEdges {
		m.ilRemove(eid)
	}
	m.affEdges = m.affEdges[:0]
}

// setK changes the number of monitored neighbors (used by active nodes
// whose n.k = max q.k changes); the monitor is recomputed lazily.
func (m *monitor) setK(k int) {
	if k == m.k {
		return
	}
	m.k = k
	m.needRecompute = true
}

// candEntrySize is the nominal cost of one candidate, reserve or not: the
// 16-byte key and 4-byte edge plus a nominal 16-byte share of the
// membership table's 8-byte slots (an id and a distance code; at most 7/8
// full), the tree index's convention. The result is the keys' prefix and
// costs nothing more.
const candEntrySize = 16 + 4 + 16

// sizeBytes estimates the memory footprint of the monitor's bookkeeping,
// using nominal per-entry costs (Fig. 18 measurements): a tree entry is a
// 24-byte dense record plus a nominal 16-byte share of the index's 8-byte
// slots (at most 7/8 full); a candidate costs candEntrySize.
func (m *monitor) sizeBytes() int {
	const (
		treeEntrySize = 24 + 16 // dense entry + index share
		affEntry      = 4 + 8
	)
	return m.tree.len()*treeEntrySize + len(m.affEdges)*affEntry + m.cand.len()*candEntrySize + 96
}
