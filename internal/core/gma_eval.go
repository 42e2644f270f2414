package core

import (
	"math"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// walkEdge records a sequence edge covered during evaluation: its weight,
// the arc distance at which the walk entered it and from which endpoint.
type walkEdge struct {
	w      float64
	dEntry float64
	fromU  bool
}

// evaluate computes q's result from scratch (paper §5): objects on the
// query's own edge are scanned directly; the walk then expands along the
// sequence in both directions, scanning edge object lists and merging the
// NN set of an endpoint active node when it is reached within kNN_dist.
// The query's reach along the sequence is then re-derived from the final
// kNN_dist. Only q and the worker's scratch are written — evaluations of
// distinct queries run concurrently, each on its own worker's arena — and
// the scratch supplies the candidate store and the walk's covered-edge
// buffer: a grouped query keeps nothing of an evaluation but its result.
func (g *groupLayer) evaluate(q *gmaQuery, sc *scratch) {
	cand := &sc.cand
	cand.reset(q.k)

	ownEdge := g.net.G.Edge(q.pos.Edge)
	for _, oe := range g.net.ObjectsOn(q.pos.Edge) {
		cand.add(oe.ID, roadnet.ArcCost(ownEdge, oe.Frac, q.pos.Frac), roadnet.Position{Edge: q.pos.Edge, Frac: oe.Frac})
	}

	seq := &g.seqs.Seqs[q.seq]
	covered := sc.covered[:0]
	q.reachB, q.distB = g.walkDir(q, cand, seq, +1, &covered)
	nB := len(covered)
	q.reachA, q.distA = g.walkDir(q, cand, seq, -1, &covered)
	sc.covered = covered // keep the grown buffer for the next evaluation

	res, _ := cand.finalize()
	q.result = append(q.result[:0], res...)
	q.kdist = cand.kth()

	at := roadnet.CostFromU(ownEdge, q.pos.Frac)
	q.ivOwn = qInterval{lo: at - q.kdist, hi: at + q.kdist}
	q.extB, q.ivB = reach(q.kdist, covered[:nB])
	q.extA, q.ivA = reach(q.kdist, covered[nB:])
}

// walkDir expands along the sequence from q's edge: dir=+1 walks toward
// EndB (increasing edge index), dir=-1 toward EndA. It reports whether the
// endpoint was reached within the moving bound kNN_dist (cand's k-th) and
// at what arc distance.
func (g *groupLayer) walkDir(q *gmaQuery, cand *candStore, seq *roadnet.Sequence, dir int, covered *[]walkEdge) (bool, float64) {
	idx := int(q.idx)

	var node graph.NodeID
	var j int // index of the next edge to traverse
	if dir > 0 {
		node = seq.Nodes[idx+1]
		j = idx + 1
	} else {
		node = seq.Nodes[idx]
		j = idx - 1
	}
	d := roadnet.CostFrom(g.net.G.Edge(q.pos.Edge), node, q.pos.Frac)

	for {
		if !g.naiveEval && d > cand.kth() {
			return false, math.Inf(1)
		}
		atEnd := (dir > 0 && j == len(seq.Edges)) || (dir < 0 && j == -1)
		if atEnd {
			g.mergeNodeSet(q, cand, node, d)
			return true, d
		}
		eid := seq.Edges[j]
		ed := g.net.G.Edge(eid)
		for _, oe := range g.net.ObjectsOn(eid) {
			cand.add(oe.ID, d+roadnet.CostFrom(ed, node, oe.Frac), roadnet.Position{Edge: eid, Frac: oe.Frac})
		}
		*covered = append(*covered, walkEdge{w: ed.W, dEntry: d, fromU: ed.U == node})
		d += ed.W
		node = ed.Other(node)
		j += dir
	}
}

// mergeNodeSet folds the NN set of active node n (at arc distance d from
// the query) into q's candidates, cand. Terminal nodes have no monitored
// set — nothing lies beyond them.
func (g *groupLayer) mergeNodeSet(q *gmaQuery, cand *candStore, n graph.NodeID, d float64) {
	if g.net.G.Degree(n) <= 1 {
		return
	}
	mon := g.nodeMon[n]
	if mon == nil {
		panic("core: grouped query depends on inactive node")
	}
	for _, nb := range mon.result {
		// The list ascends and the bound only tightens, so from the first
		// entry beyond kNN_dist on nothing can rank among the k (at an equal
		// distance a smaller object id still can).
		if d+nb.Dist > cand.kth() {
			break
		}
		// The merged object's own position is unknown here and irrelevant:
		// grouped queries are re-evaluated from scratch, never re-derived.
		cand.add(nb.Obj, d+nb.Dist, roadnet.Position{Edge: q.pos.Edge, Frac: q.pos.Frac})
	}
}

// reach measures one direction of an influence region: how many of the
// edges the walk covered that way hold a point within kdist of the query,
// and the influencing interval on the last of them. Entry
// distances ascend along the walk, so these are a prefix of covered (which
// can run past them: the walk's bound tightened as it went).
func reach(kdist float64, covered []walkEdge) (ext int32, iv qInterval) {
	for _, we := range covered {
		remain := kdist - we.dEntry
		if remain < 0 {
			break
		}
		if we.fromU {
			iv = qInterval{lo: 0, hi: remain}
		} else {
			iv = qInterval{lo: we.w - remain, hi: we.w}
		}
		ext++
	}
	return ext, iv
}
