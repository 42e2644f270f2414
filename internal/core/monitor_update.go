package core

import (
	"math"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// This file contains the incremental update handlers of IMA (§4.2-§4.4):
// each prunes the expansion tree to its provably-valid part, leaving the
// monitor in the intermediate state that finalize repairs. All handlers
// take the caller's scratch arena for their transient subtree marks.

// treeEdgeChild returns the child node of tree edge eid (the endpoint whose
// shortest path uses eid) or NoNode when eid is not a tree edge.
func (m *monitor) treeEdgeChild(eid graph.EdgeID) graph.NodeID {
	e := m.net.G.Edge(eid)
	if tn, ok := m.tree.get(e.U); ok && tn.parentEdge == eid && tn.parent == e.V {
		return e.U
	}
	if tn, ok := m.tree.get(e.V); ok && tn.parentEdge == eid && tn.parent == e.U {
		return e.V
	}
	return graph.NoNode
}

// onEdgeDecrease prunes the tree after the weight of affecting edge eid
// drops from oldW to newW (§4.4, Fig. 9). Must be called after the graph
// weight has been updated.
//
// Validity argument: any path improved by the decrease crosses eid, so its
// length is at least bound = (distance of eid's nearer endpoint) + newW,
// where an endpoint outside the tree counts as floor; nodes closer than
// bound keep exact distances. When eid is a tree
// edge a->b, the whole subtree under b additionally stays valid with
// distances reduced by oldW-newW, because its paths cross eid exactly once
// and remain optimal when they get uniformly cheaper.
func (m *monitor) onEdgeDecrease(eid graph.EdgeID, oldW, newW float64, sc *scratch) {
	if m.needRecompute {
		return
	}
	if eid == m.pos.Edge {
		// The query's own edge changed: distances on both sides scale
		// differently (§4.4 last paragraph); recompute.
		m.needRecompute = true
		return
	}
	m.dropReserve()
	e := m.net.G.Edge(eid)
	if b := m.treeEdgeChild(eid); b != graph.NoNode {
		delta := oldW - newW
		m.computeSubtree(b, sc)
		entries := m.tree.entriesSlice()
		for i := range entries {
			if sc.inSub(entries[i].node) {
				entries[i].dist -= delta
			}
		}
		bn, _ := m.tree.get(b)
		bound := bn.dist
		for i := m.tree.len() - 1; i >= 0; i-- {
			te := m.tree.at(i)
			if !sc.inSub(te.node) && te.dist > bound {
				m.tree.deleteAt(i)
			}
		}
		m.floor = min(m.floor, bound)
		// Candidates reached through the subtree carry distances that are
		// now too high by delta; re-derive everything.
		m.fullRefresh = true
		// A subtree decrease can pull objects on covered edges inside
		// kNN_dist without any candidate distance changing; the search
		// must resume from the marks (Fig. 9).
		m.needExpand = true
		m.treeDirty = true
	} else {
		// An endpoint a handler pruned earlier in this step may now be
		// closer than the tree nodes left, though not closer than floor.
		du, dv := m.floor, m.floor
		if tn, ok := m.tree.get(e.U); ok {
			du = tn.dist
		}
		if tn, ok := m.tree.get(e.V); ok {
			dv = tn.dist
		}
		bound := min(du, dv) + newW
		pruned := false
		for i := m.tree.len() - 1; i >= 0; i-- {
			if m.tree.at(i).dist > bound {
				m.tree.deleteAt(i)
				pruned = true
			}
		}
		if pruned {
			m.floor = min(m.floor, bound)
		}
		// No node distance changed: only the objects on this edge got
		// cheaper to reach. Candidates whose paths improve through the
		// pruned region are corrected by min-merge when the expansion
		// re-verifies it. Any improved path crosses this edge at cost
		// >= bound, so when bound lies beyond kNN_dist and nothing was
		// pruned, the result cannot change through it and no re-search
		// is needed once this edge's own objects are re-derived.
		m.pendingEdges = append(m.pendingEdges, eid)
		if pruned || bound <= m.kdist {
			m.needExpand = true
			m.treeDirty = m.treeDirty || pruned
		}
	}
	m.needFinalize = true
	m.slack += oldW - newW
}

// onEdgeIncrease prunes the tree after the weight of affecting edge eid
// rose (§4.4, Fig. 8): the subtree hanging under the edge (if it is a tree
// edge) may now be reachable via cheaper detours and is discarded; the
// rest of the tree avoids the edge and stays exact.
func (m *monitor) onEdgeIncrease(eid graph.EdgeID, sc *scratch) {
	if m.needRecompute {
		return
	}
	if eid == m.pos.Edge {
		m.needRecompute = true
		return
	}
	m.dropReserve()
	if b := m.treeEdgeChild(eid); b != graph.NoNode {
		m.computeSubtree(b, sc)
		for i := m.tree.len() - 1; i >= 0; i-- {
			if sc.inSub(m.tree.at(i).node) {
				m.tree.deleteAt(i)
			}
		}
		// The discarded subtree must be re-discovered via other paths, and
		// candidates that were reached through it re-derived.
		m.needExpand = true
		m.treeDirty = true
		m.fullRefresh = true
	} else {
		// Node distances are intact; only the objects on this edge changed
		// travel cost. Unless a handler pruned the tree earlier this step:
		// eid may have been a tree edge then, and a candidate reached
		// across it keeps its old, now too short, distance through the
		// expansion's min-merge unless every candidate is re-derived.
		m.pendingEdges = append(m.pendingEdges, eid)
		m.fullRefresh = m.fullRefresh || m.treeDirty
	}
	m.needFinalize = true
}

// onMove relocates the query to newPos (§4.3). When newPos lies on a tree
// edge, the subtree rooted at the new location stays valid (sub-paths of
// shortest paths are shortest) with distances reduced by d(q, q');
// otherwise the result is recomputed from scratch.
func (m *monitor) onMove(newPos roadnet.Position, sc *scratch) {
	if m.needRecompute {
		m.pos = newPos
		return
	}
	if !m.inRegion(newPos) {
		m.pos = newPos
		m.needRecompute = true
		return
	}
	m.dropReserve()
	defer func() {
		m.needFinalize, m.needExpand = true, true
		m.fullRefresh, m.treeDirty = true, true
	}()

	if newPos.Edge == m.pos.Edge {
		// Move along the query's own edge toward one endpoint; the root
		// subtree on that side stays valid if the endpoint was reached
		// directly along this edge.
		e := m.net.G.Edge(newPos.Edge)
		var side graph.NodeID
		if newPos.Frac < m.pos.Frac {
			side = e.U
		} else if newPos.Frac > m.pos.Frac {
			side = e.V
		} else {
			return // no actual movement
		}
		tn, ok := m.tree.get(side)
		if !ok || tn.parent != graph.NoNode {
			// The near endpoint is unverified or was reached the long way
			// around: no part of the tree hangs past q'.
			m.tree.clear()
			m.pos = newPos
			m.needRecompute = true
			return
		}
		delta := roadnet.ArcCost(e, m.pos.Frac, newPos.Frac)
		m.computeSubtree(side, sc)
		m.retainSubtreeShifted(delta, sc)
		m.slack += delta
		m.pos = newPos
		return
	}

	if b := m.treeEdgeChild(newPos.Edge); b != graph.NoNode {
		// q' sits on tree edge a->b: the subtree under b remains valid with
		// distances reduced by d(q, q') = dist(a) + cost(a -> q').
		e := m.net.G.Edge(newPos.Edge)
		a := e.Other(b)
		an, _ := m.tree.get(a)
		dq := an.dist + roadnet.CostFrom(e, a, newPos.Frac)
		m.computeSubtree(b, sc)
		m.retainSubtreeShifted(dq, sc)
		m.slack += dq
		m.pos = newPos
		return
	}

	// q' lies inside the influence region but on a non-tree (partially
	// covered) edge: no subtree is rooted past it; recompute.
	m.pos = newPos
	m.needRecompute = true
}

// retainSubtreeShifted drops every tree node outside sc's current subtree
// set and subtracts delta from the distances of the kept ones. The kept
// subtree's topmost node becomes a child of the (relocated) root.
func (m *monitor) retainSubtreeShifted(delta float64, sc *scratch) {
	for i := m.tree.len() - 1; i >= 0; i-- {
		if !sc.inSub(m.tree.at(i).node) {
			m.tree.deleteAt(i)
		}
	}
	entries := m.tree.entriesSlice()
	for i := range entries {
		entries[i].dist -= delta
		if entries[i].parent != graph.NoNode && !m.tree.has(entries[i].parent) {
			// Parent was pruned: this node now hangs directly off the root.
			entries[i].parent = graph.NoNode
		}
	}
}

// finalize restores the monitor invariants after a timestamp's pruning and
// object bookkeeping: it re-derives stale candidate distances (only the
// touched objects on object-only timestamps, everything after edge/move
// pruning), resumes the expansion when the k-th left what cand covers
// (Fig. 10 lines 20-26), and refreshes the influence lists. It reports
// whether the result changed.
//
// touched lists the objects whose old or new location fell inside cover
// this timestamp (incomers and moved/removed candidates alike), each with
// the position the timestamp leaves it at.
func (m *monitor) finalize(touched []touch, sc *scratch) bool {
	sc.stats.Affected++
	sc.stats.Touched += len(touched)
	if m.needRecompute {
		sc.stats.Recomputes++
		return m.computeInitial(sc)
	}
	oldKdist := m.kdist
	for i := range touched {
		if t := &touched[i]; t.edge == lateEdge {
			p, ok := m.net.ObjectPos(t.obj)
			if !ok {
				p.Edge = goneEdge
			}
			t.edge, t.frac = p.Edge, p.Frac
		}
	}

	// Re-derive candidate distances; distanceTo is exact within coverage
	// and never underestimates, so stale keys are corrected or evicted
	// and re-found by the expansion. After edge/move pruning every key is
	// re-derived from where its object is now (refreshDist); a moved
	// candidate is among the touched too, which come after.
	//
	// Settle, then offer: the members among the touched are corrected or
	// evicted first — distances, and the k-th with them, may grow here —
	// and the non-members enter afterwards, against a k-th that only shrinks
	// from there. An insertion into a full store pushes its last entry out
	// and lowers cover to it; pushed out in this order, that entry lies at or
	// beyond the final k-th, so cover never ends up below kNN_dist. (Offered
	// before the departures are settled, a burst of arrivals can push out an
	// untouched entry that the departures then make the k-th again.)
	if m.fullRefresh {
		nb, edges := m.cand.rekey()
		for i := range nb {
			nb[i].Dist, edges[i] = m.refreshDist(nb[i].Obj, edges[i])
		}
		m.cand.restore()
	}
	for _, offer := range [2]bool{false, true} {
		for _, eid := range m.pendingEdges {
			for _, oe := range m.net.ObjectsOn(eid) {
				m.rederive(oe.ID, roadnet.Position{Edge: eid, Frac: oe.Frac}, offer)
			}
		}
		for i := range touched {
			m.rederive(touched[i].obj, touched[i].pos(), offer)
		}
	}

	// Resume the search from the marks when the tree lost coverage or an
	// affecting weight dropped (needExpand), or when kNN_dist grew — which
	// it does to +Inf when fewer than k candidates remain — past what cand
	// covers: below cover the k-th's replacement is already in cand, and a
	// search that ran dry (cover +Inf) has nothing left to find.
	kth := m.cand.kth()
	reexpanded := m.needExpand || (kth > oldKdist && kth >= m.cand.cover && !math.IsInf(m.cand.cover, 1))
	if reexpanded {
		sc.stats.Reexpansions++
		if m.needExpand {
			sc.stats.ForcedReexpansions++
		}
		if m.reexpand(sc) == 0 {
			sc.stats.IdleReexpansions++
		}
	}
	m.kdist = m.cand.kth()

	// Influence lists must cover the current kNN_dist region; a stale wider
	// registration is a correct over-approximation, so shrink lazily with
	// 2x hysteresis and rebuild eagerly only on growth or tree change.
	if m.treeDirty || m.kdist > m.ilKdist || m.kdist < m.ilKdist/2 {
		m.pruneToKdist()
		m.rebuildIL(sc)
	} else if reexpanded {
		// reexpand started cover over from the frontier, while the
		// registrations stand as rebuilt for ilKdist: past a tree node at or
		// beyond it nothing reports to this monitor (invariant 2, last
		// clause — rebuildIL sees to it in the other branch).
		for _, te := range m.tree.entriesSlice() {
			if te.dist >= m.ilKdist {
				m.cand.lowerCover(te.dist)
			}
		}
	}
	var changed bool
	m.result, changed = m.cand.finalize()
	m.needFinalize = false
	m.needExpand = false
	m.fullRefresh = false
	m.slack, m.floor = 0, math.Inf(1)
	m.pendingEdges = m.pendingEdges[:0]
	return changed
}

// refreshDist re-derives the distance of candidate obj, last offered on edge
// e, and returns it with the object's edge: its fraction is found on e's
// object list, or — for an object that left e this timestamp — in the
// registry. A deleted object is evicted (+Inf).
func (m *monitor) refreshDist(obj roadnet.ObjectID, e graph.EdgeID) (float64, graph.EdgeID) {
	for _, oe := range m.net.ObjectsOn(e) {
		if oe.ID == obj {
			return m.distanceTo(roadnet.Position{Edge: e, Frac: oe.Frac}), e
		}
	}
	p, ok := m.net.ObjectPos(obj)
	if !ok {
		return math.Inf(1), e
	}
	return m.distanceTo(p), p.Edge
}

// rederive sets obj's candidate distance from its position p (goneEdge when
// it was deleted): with offer unset it corrects a member, evicting it when p
// is out of the tree's reach; with offer set it inserts a non-member within
// reach.
func (m *monitor) rederive(obj roadnet.ObjectID, p roadnet.Position, offer bool) {
	if m.cand.contains(obj) == offer {
		return
	}
	if p.Edge != goneEdge {
		if d := m.distanceTo(p); !math.IsInf(d, 1) {
			m.cand.setExact(obj, d, p.Edge)
			return
		}
	}
	m.cand.remove(obj)
}
