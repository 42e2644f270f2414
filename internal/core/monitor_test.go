package core

import (
	"math"
	"slices"
	"testing"

	"roadknn/internal/geom"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// ladderNet builds a 2x4 ladder with unit weights:
//
//	n4 - n5 - n6 - n7
//	 |    |    |    |
//	n0 - n1 - n2 - n3
//
// Edge ids: bottom 0-2 (n0n1,n1n2,n2n3), top 3-5, rungs 6-9.
func ladderNet() *roadnet.Network {
	g := graph.New(8, 10)
	for i := 0; i < 4; i++ {
		g.AddNode(geom.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < 4; i++ {
		g.AddNode(geom.Point{X: float64(i), Y: 1})
	}
	for i := 0; i < 3; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	for i := 4; i < 7; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+4), 1)
	}
	return roadnet.NewNetwork(g)
}

func newTestMonitor(net *roadnet.Network, pos roadnet.Position, k int) (*monitor, *ilTable) {
	il := newILTable(net.G.NumEdges())
	m := newMonitor(net, il, 1, pos, k)
	m.computeInitial(newScratch(net.G.NumNodes()))
	return m, il
}

// testScratch returns a fresh arena sized to the monitor's network.
func testScratch(m *monitor) *scratch { return newScratch(m.net.G.NumNodes()) }

func TestMonitorTreeInvariantAfterInitial(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 1, Frac: 0.5}) // x=1.5 bottom
	net.AddObject(2, roadnet.Position{Edge: 4, Frac: 0.5}) // x=1.5 top
	net.AddObject(3, roadnet.Position{Edge: 2, Frac: 1.0}) // x=3 bottom
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.5}, 2)

	// kNN: obj1 at 1.0, obj2 at 2.0 (via rung), obj3 at 2.5.
	if len(m.result) != 2 || m.result[0].Obj != 1 || m.result[1].Obj != 2 {
		t.Fatalf("result = %v", m.result)
	}
	if math.Abs(m.kdist-2.0) > 1e-9 {
		t.Fatalf("kdist = %g, want 2.0", m.kdist)
	}
	// Every tree node's distance must equal the oracle distance.
	checkTreeExact(t, m)
	// Nodes within kdist must be in the tree: n0 (0.5), n1 (0.5), n2 (1.5),
	// n4 (1.5), n5 (1.5).
	for _, n := range []graph.NodeID{0, 1, 2, 4, 5} {
		if !m.tree.has(n) {
			t.Fatalf("node %d missing from tree: %v", n, m.tree.entriesSlice())
		}
	}
}

// checkTreeExact verifies tree distances against a fresh Dijkstra.
func checkTreeExact(t *testing.T, m *monitor) {
	t.Helper()
	g := m.net.G
	e := g.Edge(m.pos.Edge)
	dist, _ := g.Dijkstra(
		[]graph.NodeID{e.U, e.V},
		[]float64{roadnet.CostFromU(e, m.pos.Frac), roadnet.CostFromV(e, m.pos.Frac)},
		math.Inf(1),
	)
	for _, tn := range m.tree.entriesSlice() {
		if math.Abs(tn.dist-dist[tn.node]) > 1e-9 {
			t.Fatalf("tree node %d dist %g, oracle %g", tn.node, tn.dist, dist[tn.node])
		}
	}
}

func TestMonitorDistanceToNeverUnderestimates(t *testing.T) {
	net := ladderNet()
	for i := 0; i < 6; i++ {
		net.AddObject(roadnet.ObjectID(i), roadnet.Position{
			Edge: graph.EdgeID(i), Frac: 0.3,
		})
	}
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.2}, 3)
	for e := 0; e < net.G.NumEdges(); e++ {
		for _, f := range []float64{0, 0.33, 0.71, 1} {
			p := roadnet.Position{Edge: graph.EdgeID(e), Frac: f}
			est := m.distanceTo(p)
			truth := BruteForceKNNposDist(net, m.pos, p)
			if est < truth-1e-9 {
				t.Fatalf("distanceTo(%v) = %g underestimates true %g", p, est, truth)
			}
		}
	}
}

// BruteForceKNNposDist computes the true network distance between two
// positions via Dijkstra (test helper).
func BruteForceKNNposDist(net *roadnet.Network, a, b roadnet.Position) float64 {
	g := net.G
	ea := g.Edge(a.Edge)
	dist, _ := g.Dijkstra(
		[]graph.NodeID{ea.U, ea.V},
		[]float64{roadnet.CostFromU(ea, a.Frac), roadnet.CostFromV(ea, a.Frac)},
		math.Inf(1),
	)
	eb := g.Edge(b.Edge)
	d := math.Inf(1)
	if v := dist[eb.U] + roadnet.CostFromU(eb, b.Frac); v < d {
		d = v
	}
	if v := dist[eb.V] + roadnet.CostFromV(eb, b.Frac); v < d {
		d = v
	}
	if a.Edge == b.Edge {
		if v := roadnet.ArcCost(eb, a.Frac, b.Frac); v < d {
			d = v
		}
	}
	return d
}

func TestTreeEdgeChildDetection(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 2, Frac: 1.0}) // far: big tree
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.0}, 1)
	// Query at n0. Edge 0 (n0-n1) is the root edge; n1's parentEdge is 0
	// but its parent is NoNode (root child), so edge 0 is not a "tree edge"
	// in the a->b sense.
	if got := m.treeEdgeChild(0); got != graph.NoNode {
		t.Fatalf("treeEdgeChild(root edge) = %d, want NoNode", got)
	}
	// Edge 1 (n1-n2) carries the shortest path n1 -> n2.
	if got := m.treeEdgeChild(1); got != 2 {
		t.Fatalf("treeEdgeChild(1) = %d, want node 2", got)
	}
}

func TestSubtreeOf(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 2, Frac: 1.0})
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.0}, 1)
	sc := testScratch(m)
	m.computeSubtree(1, sc) // subtree under n1
	if !sc.inSub(1) || !sc.inSub(2) {
		t.Fatal("subtree(1) must include n1, n2")
	}
	if sc.inSub(0) {
		t.Fatal("subtree(1) must not include the query-side node n0")
	}
}

func TestOnEdgeIncreasePrunesSubtree(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 2, Frac: 1.0}) // at n3
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.0}, 1)
	if !m.tree.has(2) {
		t.Fatal("precondition: n2 must be verified")
	}
	sc := testScratch(m)
	// Raise weight of edge 1 (n1-n2): subtree under n2 must be discarded.
	net.G.SetWeight(1, 10)
	m.onEdgeIncrease(1, sc)
	if m.tree.has(2) {
		t.Fatal("subtree under increased edge not pruned")
	}
	if !m.tree.has(1) {
		t.Fatal("kept part of the tree was wrongly pruned")
	}
	// finalize must restore a correct result via the detour (n1-n5-n6-n2).
	m.finalize(nil, sc)
	want := BruteForceKNN(net, m.pos, 1)
	if err := compareResults(m.result, want); err != nil {
		t.Fatalf("after increase: %v", err)
	}
	checkTreeExact(t, m)
}

func TestOnEdgeDecreaseAdjustsSubtree(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 2, Frac: 1.0})
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.0}, 1)
	sc := testScratch(m)
	tn2, _ := m.tree.get(2)
	d2Before := tn2.dist
	net.G.SetWeight(1, 0.5)
	m.onEdgeDecrease(1, 1.0, 0.5, sc)
	tn2, _ = m.tree.get(2)
	if got := tn2.dist; math.Abs(got-(d2Before-0.5)) > 1e-9 {
		t.Fatalf("subtree distance = %g, want %g", got, d2Before-0.5)
	}
	m.finalize(nil, sc)
	want := BruteForceKNN(net, m.pos, 1)
	if err := compareResults(m.result, want); err != nil {
		t.Fatalf("after decrease: %v", err)
	}
	checkTreeExact(t, m)
}

func TestOnMoveRetainsSubtree(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 2, Frac: 1.0})
	net.AddObject(2, roadnet.Position{Edge: 3, Frac: 0.0}) // at n4
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.1}, 2)
	// Move along a tree edge toward the first NN.
	sc := testScratch(m)
	m.onMove(roadnet.Position{Edge: 1, Frac: 0.5}, sc)
	if m.needRecompute {
		t.Fatal("in-tree move triggered full recomputation")
	}
	m.finalize(nil, sc)
	want := BruteForceKNN(net, m.pos, 2)
	if err := compareResults(m.result, want); err != nil {
		t.Fatalf("after move: %v", err)
	}
	checkTreeExact(t, m)
}

func TestOnMoveOutsideTreeRecomputes(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 0, Frac: 0.1})
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.2}, 1)
	// kdist is tiny; the far end of the ladder is way outside the tree.
	sc := testScratch(m)
	m.onMove(roadnet.Position{Edge: 5, Frac: 0.9}, sc)
	if !m.needRecompute {
		t.Fatal("out-of-tree move must trigger recomputation")
	}
	m.finalize(nil, sc)
	want := BruteForceKNN(net, m.pos, 1)
	if err := compareResults(m.result, want); err != nil {
		t.Fatalf("after far move: %v", err)
	}
}

func TestQueryOwnEdgeWeightChangeRecomputes(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 1, Frac: 0.5})
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
	sc := testScratch(m)
	net.G.SetWeight(0, 3)
	m.onEdgeIncrease(0, sc)
	if !m.needRecompute {
		t.Fatal("own-edge weight change must recompute")
	}
	m.finalize(nil, sc)
	want := BruteForceKNN(net, m.pos, 1)
	if err := compareResults(m.result, want); err != nil {
		t.Fatalf("after own-edge change: %v", err)
	}
}

func TestInfluenceRegistrationLifecycle(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 0, Frac: 0.9})
	il := newILTable(net.G.NumEdges())
	m := newMonitor(net, il, 7, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
	m.computeInitial(testScratch(m))
	if len(m.affEdges) == 0 || il.entries() != len(m.affEdges) {
		t.Fatalf("registrations inconsistent: affEdges=%d entries=%d",
			len(m.affEdges), il.entries())
	}
	// The query's own edge is always registered.
	if !slices.Contains(il.byEdge[0], m) {
		t.Fatal("own edge not in influence table")
	}
	m.clearIL()
	if il.entries() != 0 {
		t.Fatalf("clearIL left %d entries", il.entries())
	}
}

func TestFrontierMinMatchesNearestMark(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 0, Frac: 0.75})
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
	// kdist = 0.25; the tree is empty, so the frontier is the two root-edge
	// endpoints at 0.5 each.
	if got := m.frontierMin(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("frontierMin = %g, want 0.5", got)
	}
}

func TestSetKForcesRecompute(t *testing.T) {
	net := ladderNet()
	for i := 0; i < 5; i++ {
		net.AddObject(roadnet.ObjectID(i), roadnet.Position{Edge: graph.EdgeID(i), Frac: 0.5})
	}
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
	m.setK(3)
	if !m.needRecompute {
		t.Fatal("setK did not flag recomputation")
	}
	m.finalize(nil, testScratch(m))
	if len(m.result) != 3 {
		t.Fatalf("after setK(3): %d results", len(m.result))
	}
	want := BruteForceKNN(net, m.pos, 3)
	if err := compareResults(m.result, want); err != nil {
		t.Fatal(err)
	}
}

func TestLazyILShrinkKeepsFiltering(t *testing.T) {
	net := ladderNet()
	net.AddObject(1, roadnet.Position{Edge: 2, Frac: 0.5})
	net.AddObject(2, roadnet.Position{Edge: 5, Frac: 0.5})
	m, _ := newTestMonitor(net, roadnet.Position{Edge: 0, Frac: 0.0}, 1)
	// An object appears right next to the query: kdist shrinks a lot.
	p := roadnet.Position{Edge: 0, Frac: 0.05}
	net.AddObject(3, p)
	m.finalize([]touch{{obj: 3, edge: 0, dist: m.distanceTo(p)}}, testScratch(m))
	if m.result[0].Obj != 3 {
		t.Fatalf("result = %v", m.result)
	}
	// Influence registrations may lag (lazy shrink) but must still cover
	// the current kNN_dist region.
	if m.ilKdist < m.kdist {
		t.Fatalf("ilKdist %g below kdist %g", m.ilKdist, m.kdist)
	}
}
