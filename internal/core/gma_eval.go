package core

import (
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
// the scratch supplies the candidate store, capped at k, the merge's spare
// key arrays and the walk's covered-edge buffer: a grouped query keeps
// nothing of an evaluation but its result.
//
// An object lies on one edge, so the objects of the own and the walked edges
// are distinct, and are offered without a membership probe until the walk
// has reached an end, where a node set may have been merged.
func (g *groupLayer) evaluate(q *gmaQuery, sc *scratch) {
	cand := &sc.cand
	cand.resetTop(q.k)
	sc.stats.Evaluations++

	ownEdge := g.net.G.Edge(q.pos.Edge)
	own := g.net.ObjectsOn(q.pos.Edge)
	sc.stats.EvalEntries += len(own)
	for _, oe := range own {
		cand.offer(oe.ID, roadnet.ArcCost(ownEdge, oe.Frac, q.pos.Frac), q.pos.Edge, true)
	}

	seq := &g.seqs.Seqs[q.seq]
	covered := sc.covered[:0]
	q.reachB = g.walkDir(q, sc, seq, +1, &covered, true)
	nB := len(covered)
	q.reachA = g.walkDir(q, sc, seq, -1, &covered, !q.reachB)
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
// endpoint was reached within the moving bound kNN_dist (the store's k-th).
// fresh offers the walked edges' objects without a probe: no node set has
// been merged before.
func (g *groupLayer) walkDir(q *gmaQuery, sc *scratch, seq *roadnet.Sequence, dir int, covered *[]walkEdge, fresh bool) bool {
	cand := &sc.cand
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
			return false
		}
		atEnd := (dir > 0 && j == len(seq.Edges)) || (dir < 0 && j == -1)
		if atEnd {
			g.mergeNodeSet(q, sc, node, d)
			return true
		}
		eid := seq.Edges[j]
		ed := g.net.G.Edge(eid)
		objs := g.net.ObjectsOn(eid)
		sc.stats.EvalEntries += len(objs)
		for _, oe := range objs {
			cand.offer(oe.ID, d+roadnet.CostFrom(ed, node, oe.Frac), eid, fresh)
		}
		*covered = append(*covered, walkEdge{w: ed.W, dEntry: d, fromU: ed.U == node})
		d += ed.W
		node = ed.Other(node)
		j += dir
	}
}

// mergeNodeSet folds the NN set of active node n (at arc distance d from
// the query) into the store in one linear merge (candStore.merge), which
// stops at the k-th: a node set ascends, so from the first entry beyond
// kNN_dist on nothing can rank among the k. Terminal nodes have no
// monitored set — nothing lies beyond them.
func (g *groupLayer) mergeNodeSet(q *gmaQuery, sc *scratch, n graph.NodeID, d float64) {
	if g.net.G.Degree(n) <= 1 {
		return
	}
	mon := g.nodeMon[n]
	if mon == nil {
		panic("core: grouped query depends on inactive node")
	}
	// The merged objects' own edges are unknown here and irrelevant: grouped
	// queries are re-evaluated from scratch, never re-derived.
	sc.stats.EvalEntries += sc.cand.merge(mon.result, d, q.pos.Edge, &sc.spare)
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
