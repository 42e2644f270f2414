package core

import (
	"math"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// walkEdge records a sequence edge covered during evaluation: the arc
// distance at which the walk entered it and from which endpoint.
type walkEdge struct {
	eid    graph.EdgeID
	dEntry float64
	fromU  bool
}

// evaluate computes q's result from scratch (paper §5): objects on the
// query's own edge are scanned directly; the walk then expands along the
// sequence in both directions, scanning edge object lists and merging the
// NN set of an endpoint active node when it is reached within kNN_dist.
// The influencing intervals on the covered sequence edges are re-registered
// from the final kNN_dist. The scratch arena supplies the walk's covered-
// edge buffer.
func (g *groupLayer) evaluate(q *gmaQuery, sc *scratch) {
	g.evaluateInto(q, nil, sc)
}

// evaluateInto is evaluate with an optional influence-table sink: with a
// non-nil sink the shared qIL table is left untouched and the mutations are
// appended to the sink instead, so that evaluations of distinct queries can
// run concurrently (each query only ever touches its own qIL entries, so
// replaying the buffered ops in any shard order yields the serial table).
func (g *groupLayer) evaluateInto(q *gmaQuery, sink *[]qilOp, sc *scratch) {
	for eid := range q.affEdges {
		if sink != nil {
			*sink = append(*sink, qilOp{del: true, edge: eid, q: q.id})
		} else {
			delete(g.qIL[eid], q.id)
		}
	}
	clear(q.affEdges)
	q.cand.reset(q.k)

	ownEdge := g.net.G.Edge(q.pos.Edge)
	for _, oe := range g.net.ObjectsOn(q.pos.Edge) {
		q.cand.add(oe.ID, math.Abs(oe.Frac-q.pos.Frac)*ownEdge.W, roadnet.Position{Edge: q.pos.Edge, Frac: oe.Frac})
	}

	seq := &g.seqs.Seqs[q.seq]
	covered := sc.covered[:0]
	q.reachB, q.distB = g.walkDir(q, seq, +1, &covered)
	q.reachA, q.distA = g.walkDir(q, seq, -1, &covered)
	sc.covered = covered // keep the grown buffer for the next evaluation

	q.result, _ = q.cand.finalize()
	q.kdist = q.cand.kth()

	g.registerIntervals(q, covered, sink)
}

// walkDir expands along the sequence from q's edge: dir=+1 walks toward
// EndB (increasing edge index), dir=-1 toward EndA. It reports whether the
// endpoint was reached within the moving bound kNN_dist and at what arc
// distance.
func (g *groupLayer) walkDir(q *gmaQuery, seq *roadnet.Sequence, dir int, covered *[]walkEdge) (bool, float64) {
	idx := int(g.seqs.EdgeIndex[q.pos.Edge])

	var node graph.NodeID
	var j int // index of the next edge to traverse
	if dir > 0 {
		node = seq.Nodes[idx+1]
		j = idx + 1
	} else {
		node = seq.Nodes[idx]
		j = idx - 1
	}
	d := g.net.CostFrom(node, q.pos)

	for {
		if !g.naiveEval && d >= q.cand.kth() {
			return false, math.Inf(1)
		}
		atEnd := (dir > 0 && j == len(seq.Edges)) || (dir < 0 && j == -1)
		if atEnd {
			g.mergeNodeSet(q, node, d)
			return true, d
		}
		eid := seq.Edges[j]
		ed := g.net.G.Edge(eid)
		for _, oe := range g.net.ObjectsOn(eid) {
			q.cand.add(oe.ID, d+costFrom(ed, node, oe.Frac), roadnet.Position{Edge: eid, Frac: oe.Frac})
		}
		*covered = append(*covered, walkEdge{eid: eid, dEntry: d, fromU: ed.U == node})
		d += ed.W
		node = ed.Other(node)
		j += dir
	}
}

// mergeNodeSet folds the NN set of active node n (at arc distance d from
// the query) into q's candidates. Terminal nodes have no monitored set —
// nothing lies beyond them.
func (g *groupLayer) mergeNodeSet(q *gmaQuery, n graph.NodeID, d float64) {
	if g.net.G.Degree(n) <= 1 {
		return
	}
	mon, ok := g.set.mons[nodeKey(n)]
	if !ok {
		panic("core: grouped query depends on inactive node")
	}
	for _, nb := range mon.result {
		// The merged object's own position is unknown here and irrelevant:
		// grouped queries are re-evaluated from scratch, never re-derived.
		q.cand.add(nb.Obj, d+nb.Dist, roadnet.Position{Edge: q.pos.Edge, Frac: q.pos.Frac})
	}
}

// registerIntervals writes q's influencing intervals: on its own edge the
// direct span q ± kNN_dist, and on every covered sequence edge the portion
// within kNN_dist of the walk's entry point.
func (g *groupLayer) registerIntervals(q *gmaQuery, covered []walkEdge, sink *[]qilOp) {
	w := g.net.G.Edge(q.pos.Edge).W
	span := fracSpan(q.kdist, w)
	g.addInterval(q, q.pos.Edge, qInterval{
		lo: math.Max(0, q.pos.Frac-span),
		hi: math.Min(1, q.pos.Frac+span),
	}, sink)
	for _, we := range covered {
		remain := q.kdist - we.dEntry
		if remain <= -distEps {
			continue
		}
		f := fracSpan(remain, g.net.G.Edge(we.eid).W)
		var iv qInterval
		if we.fromU {
			iv = qInterval{lo: 0, hi: f}
		} else {
			iv = qInterval{lo: 1 - f, hi: 1}
		}
		g.addInterval(q, we.eid, iv, sink)
	}
}

// fracSpan converts a travel-cost span into edge-fraction units, clipped
// to one full edge.
func fracSpan(cost, w float64) float64 {
	if math.IsInf(cost, 1) || cost >= w {
		return 1
	}
	if cost <= 0 {
		return 0
	}
	return cost / w
}

func (g *groupLayer) addInterval(q *gmaQuery, eid graph.EdgeID, iv qInterval, sink *[]qilOp) {
	if cur, ok := q.affEdges[eid]; ok {
		iv = cur.union(iv)
	}
	q.affEdges[eid] = iv
	if sink != nil {
		// Repeated registrations on one edge widen the interval; the ops
		// are applied in emission order, so the last (widest) wins.
		*sink = append(*sink, qilOp{edge: eid, q: q.id, iv: iv})
		return
	}
	m := g.qIL[eid]
	if m == nil {
		m = make(map[QueryID]qInterval, 2)
		g.qIL[eid] = m
	}
	m[q.id] = iv
}
