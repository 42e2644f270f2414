package core

import (
	"slices"
	"testing"

	"roadknn/internal/roadnet"
)

// TestGroupedRoutingIsComplete checks the property the result oracles cannot
// give: that the reach a grouped query records after an evaluation covers
// everything that can change its result from inside its sequence. A hole in
// it goes unnoticed by a result check until an update happens to fall
// through. Under the lockstep churn with roads opening and closing, with the
// bounded walk and with the naive one, after every tick and for every
// grouped query, distances are re-derived along the sequence without any of
// the evaluation's state: every object on it within kNN_dist must be
// influencing where it stands, and every edge with a point within kNN_dist
// must be influencing as a whole (a weight change anywhere on it matters).
func TestGroupedRoutingIsComplete(t *testing.T) {
	w := newLockstepWorldOf(t, 909, 150, 70, 14, 5, func(build func() *roadnet.Network) []Engine {
		return []Engine{NewGMA(build()), NewGMANaive(build())}
	})
	w.topoChurn = true
	checked := 0
	for ts := 1; ts <= 30; ts++ {
		w.step(ts, 0.3, 0.3, 0.05)
		for _, e := range w.engines {
			g := e.(*Incremental).grp
			for q := range g.queries {
				checked += checkRouting(t, w.label(ts)+" "+e.Name(), g, q)
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d points and edges were within kNN_dist over the whole run", checked)
	}
}

// checkRouting verifies q's reach against its sequence as it is now and
// returns how many objects and edges it found within kNN_dist.
func checkRouting(t *testing.T, label string, g *groupLayer, q *gmaQuery) (checked int) {
	t.Helper()
	seq := &g.seqs.Seqs[q.seq]
	if seq.Edges[q.idx] != q.pos.Edge {
		t.Fatalf("%s: query %d on edge %d records index %d of %v", label, q.id, q.pos.Edge, q.idx, seq.Edges)
	}
	if !slices.Contains(g.seqQ[q.seq], q) {
		t.Fatalf("%s: query %d is missing from its sequence's list", label, q.id)
	}
	// must checks edge j, whose point nearest the query lies at distance d
	// along the sequence from it, and the objects on it, each at distance
	// d + away(frac).
	must := func(j int, d float64, away func(frac float64) float64) {
		if d > q.kdist {
			return
		}
		checked++
		if !q.influenced(int32(j), 0, true) {
			t.Fatalf("%s: query %d (kNN_dist %g, reach A %d B %d from %d): edge %d of its sequence starts %g away and is not influencing",
				label, q.id, q.kdist, q.extA, q.extB, q.idx, j, d)
		}
		for _, oe := range g.net.ObjectsOn(seq.Edges[j]) {
			if od := d + away(oe.Frac); od <= q.kdist {
				checked++
				if !q.influenced(int32(j), roadnet.CostFromU(g.net.G.Edge(seq.Edges[j]), oe.Frac), false) {
					t.Fatalf("%s: query %d (kNN_dist %g, own %v A %d %v B %d %v from %d): object %d at %g of edge %d of its sequence is %g away and not influencing",
						label, q.id, q.kdist, q.ivOwn, q.extA, q.ivA, q.extB, q.ivB, q.idx, oe.ID, oe.Frac, j, od)
				}
			}
		}
	}
	idx := int(q.idx)
	own := g.net.G.Edge(q.pos.Edge)
	must(idx, 0, func(frac float64) float64 { return roadnet.ArcCost(own, frac, q.pos.Frac) })
	for _, dir := range []int{+1, -1} {
		// near is the node through which edge j is entered coming from q.
		near := idx + (1+dir)/2
		d := roadnet.CostFrom(own, seq.Nodes[near], q.pos.Frac)
		for j := idx + dir; j >= 0 && j < len(seq.Edges); j += dir {
			ed, node := g.net.G.Edge(seq.Edges[j]), seq.Nodes[near]
			must(j, d, func(frac float64) float64 { return roadnet.CostFrom(ed, node, frac) })
			d += ed.W
			near += dir
		}
	}
	return checked
}
