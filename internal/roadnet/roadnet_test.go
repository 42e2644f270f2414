package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"roadknn/internal/geom"
	"roadknn/internal/graph"
)

// lineGraph builds a path a-b-c with weights 2 and 3 and unit-ish geometry.
func lineGraph() (*graph.Graph, [3]graph.NodeID, [2]graph.EdgeID) {
	g := graph.New(3, 2)
	a := g.AddNode(geom.Point{X: 0, Y: 0})
	b := g.AddNode(geom.Point{X: 2, Y: 0})
	c := g.AddNode(geom.Point{X: 5, Y: 0})
	e0 := g.AddEdge(a, b, 2)
	e1 := g.AddEdge(b, c, 3)
	return g, [3]graph.NodeID{a, b, c}, [2]graph.EdgeID{e0, e1}
}

func TestPointAndCosts(t *testing.T) {
	g, _, edges := lineGraph()
	n := NewNetwork(g)
	pos := Position{Edge: edges[0], Frac: 0.25}
	pt := n.Point(pos)
	if math.Abs(pt.X-0.5) > 1e-12 || pt.Y != 0 {
		t.Fatalf("Point = %+v, want (0.5,0)", pt)
	}
	if got := CostFromU(g.Edge(pos.Edge), pos.Frac); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CostFromU = %g, want 0.5", got)
	}
	if got := CostFromV(g.Edge(pos.Edge), pos.Frac); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("CostFromV = %g, want 1.5", got)
	}
	if got := ArcCost(g.Edge(pos.Edge), pos.Frac, 0.75); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ArcCost = %g, want 1", got)
	}
}

func TestCostFromEndpointDispatch(t *testing.T) {
	g, nodes, edges := lineGraph()
	pos := Position{Edge: edges[1], Frac: 0.5}
	if got := CostFrom(g.Edge(pos.Edge), nodes[1], pos.Frac); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("CostFrom(b) = %g, want 1.5", got)
	}
	if got := CostFrom(g.Edge(pos.Edge), nodes[2], pos.Frac); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("CostFrom(c) = %g, want 1.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-endpoint node")
		}
	}()
	CostFrom(g.Edge(pos.Edge), nodes[0], pos.Frac)
}

func TestSnap(t *testing.T) {
	g, _, edges := lineGraph()
	n := NewNetwork(g)
	// Snap a point hovering above the middle of edge 1.
	pos, ok := n.Snap(geom.Point{X: 3.5, Y: 0.7})
	if !ok || pos.Edge != edges[1] {
		t.Fatalf("Snap = %+v, %v", pos, ok)
	}
	if math.Abs(pos.Frac-0.5) > 1e-9 {
		t.Fatalf("Snap frac = %g, want 0.5", pos.Frac)
	}
}

func TestObjectLifecycle(t *testing.T) {
	g, _, edges := lineGraph()
	n := NewNetwork(g)
	n.AddObject(1, Position{Edge: edges[0], Frac: 0.5})
	n.AddObject(2, Position{Edge: edges[0], Frac: 0.9})
	if n.NumObjects() != 2 {
		t.Fatalf("NumObjects = %d, want 2", n.NumObjects())
	}
	if got := len(n.ObjectsOn(edges[0])); got != 2 {
		t.Fatalf("ObjectsOn(e0) = %d, want 2", got)
	}

	old := n.MoveObject(1, Position{Edge: edges[1], Frac: 0.1})
	if old.Edge != edges[0] || old.Frac != 0.5 {
		t.Fatalf("MoveObject returned old = %+v", old)
	}
	if len(n.ObjectsOn(edges[0])) != 1 || len(n.ObjectsOn(edges[1])) != 1 {
		t.Fatal("edge lists not updated after move")
	}

	// Same-edge move keeps the list membership.
	n.MoveObject(1, Position{Edge: edges[1], Frac: 0.8})
	if len(n.ObjectsOn(edges[1])) != 1 {
		t.Fatal("same-edge move corrupted the list")
	}

	pos, ok := n.RemoveObject(1)
	if !ok || pos.Frac != 0.8 {
		t.Fatalf("RemoveObject = %+v, %v", pos, ok)
	}
	if _, ok := n.ObjectPos(1); ok {
		t.Fatal("removed object still resolvable")
	}
	if _, ok := n.RemoveObject(1); ok {
		t.Fatal("double remove succeeded")
	}
}

func TestAddDuplicateObjectPanics(t *testing.T) {
	g, _, edges := lineGraph()
	n := NewNetwork(g)
	n.AddObject(1, Position{Edge: edges[0], Frac: 0.5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddObject(1, Position{Edge: edges[1], Frac: 0.5})
}

func TestRandomWalkConservesPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gridGraph(6)
	n := NewNetwork(g)
	pos := n.UniformPosition(rng)
	for i := 0; i < 500; i++ {
		d := rng.Float64() * 4
		pos = n.RandomWalk(pos, d, 0, rng)
		if pos.Frac < 0 || pos.Frac > 1 {
			t.Fatalf("walk left the edge: %+v", pos)
		}
		if pos.Edge < 0 || int(pos.Edge) >= g.NumEdges() {
			t.Fatalf("walk produced invalid edge %d", pos.Edge)
		}
	}
}

func TestRandomWalkExactDistanceWithinEdge(t *testing.T) {
	g, _, edges := lineGraph()
	n := NewNetwork(g)
	rng := rand.New(rand.NewSource(1))
	// Walk 0.5 length units along edge 0 (length 2) toward V.
	pos := n.RandomWalk(Position{Edge: edges[0], Frac: 0}, 0.5, 1, rng)
	if pos.Edge != edges[0] || math.Abs(pos.Frac-0.25) > 1e-12 {
		t.Fatalf("walk = %+v, want frac 0.25 on e0", pos)
	}
}

func TestRandomWalkDeadEndTurnsAround(t *testing.T) {
	g, _, edges := lineGraph()
	n := NewNetwork(g)
	rng := rand.New(rand.NewSource(1))
	// From middle of edge 0 walking toward the dead end a (length to a = 1),
	// a total of 1.5 must bounce and come back 0.5 past a.
	pos := n.RandomWalk(Position{Edge: edges[0], Frac: 0.5}, 1.5, -1, rng)
	if pos.Edge != edges[0] || math.Abs(pos.Frac-0.25) > 1e-12 {
		t.Fatalf("walk = %+v, want frac 0.25 on e0 after bounce", pos)
	}
}

func TestAvgEdgeLength(t *testing.T) {
	g, _, _ := lineGraph()
	n := NewNetwork(g)
	if got := n.AvgEdgeLength(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("AvgEdgeLength = %g, want 2.5", got)
	}
}

// gridGraph builds a k x k grid with unit spacing.
func gridGraph(k int) *graph.Graph {
	g := graph.New(k*k, 2*k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			g.AddNode(geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*k + x) }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				g.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < k {
				g.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return g
}
