package graph

import (
	"math"
	"math/rand"
	"testing"

	"roadknn/internal/geom"
)

// buildTriangle returns a 3-node triangle graph:
//
//	a --1-- b
//	 \      |
//	  4     1
//	   \    |
//	    `-- c
func buildTriangle(t *testing.T) (*Graph, [3]NodeID) {
	t.Helper()
	g := New(3, 3)
	a := g.AddNode(geom.Point{X: 0, Y: 0})
	b := g.AddNode(geom.Point{X: 1, Y: 0})
	c := g.AddNode(geom.Point{X: 1, Y: 1})
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	g.AddEdge(a, c, 4)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g, [3]NodeID{a, b, c}
}

func TestAddAndQuery(t *testing.T) {
	g, ids := buildTriangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size = (%d,%d), want (3,3)", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(ids[0]) != 2 {
		t.Fatalf("Degree(a) = %d, want 2", g.Degree(ids[0]))
	}
	e := g.Edge(0)
	if e.Other(ids[0]) != ids[1] || e.Other(ids[1]) != ids[0] {
		t.Fatal("Other returned wrong endpoint")
	}
	if got := g.Segment(0).Length(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Segment length = %g, want 1", got)
	}
}

func TestEdgeLengthIsEuclidean(t *testing.T) {
	g := New(2, 1)
	a := g.AddNode(geom.Point{X: 0, Y: 0})
	b := g.AddNode(geom.Point{X: 3, Y: 4})
	id := g.AddEdge(a, b, 10)
	if got := g.Edge(id).Length; math.Abs(got-5) > 1e-12 {
		t.Fatalf("Length = %g, want 5", got)
	}
	if g.Edge(id).W != 10 {
		t.Fatalf("W = %g, want 10", g.Edge(id).W)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2, 1)
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{X: 1})
	cases := []struct {
		name string
		fn   func()
	}{
		{"invalid endpoint", func() { g.AddEdge(a, 99, 1) }},
		{"self loop", func() { g.AddEdge(a, a, 1) }},
		{"zero weight", func() { g.AddEdge(a, b, 0) }},
		{"negative weight", func() { g.AddEdge(a, b, -1) }},
		{"nan weight", func() { g.AddEdge(a, b, math.NaN()) }},
		{"weight above the ceiling", func() { g.AddEdge(a, b, 2*MaxWeight) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSetWeight(t *testing.T) {
	g, _ := buildTriangle(t)
	g.SetWeight(0, 7)
	if g.Edge(0).W != 7 {
		t.Fatalf("W = %g, want 7", g.Edge(0).W)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive weight")
		}
	}()
	g.SetWeight(0, 0)
}

// TestWeightsAreQuantised: AddEdge and SetWeight store whole numbers of
// quanta, a weight below one quantum becomes one, and the ceiling itself is
// accepted.
func TestWeightsAreQuantised(t *testing.T) {
	g := New(2, 2)
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{X: 1})
	for _, c := range []struct{ in, want float64 }{
		{0.1, 104858 * Quantum}, // 0.1 * 2^20 = 104857.6
		{1e-9, Quantum},
		{0.75, 0.75},
		{MaxWeight, MaxWeight},
	} {
		e := g.AddEdge(a, b, c.in)
		if got := g.Edge(e).W; got != c.want {
			t.Errorf("AddEdge(%v): W = %v, want %v", c.in, got, c.want)
		}
		g.SetWeight(e, c.in/3)
		if got, want := g.Edge(e).W, QuantiseWeight(c.in/3); got != want || got/Quantum != math.Trunc(got/Quantum) {
			t.Errorf("SetWeight(%v): W = %v, want %v", c.in/3, got, want)
		}
		g.RemoveEdge(e)
	}
	if err := CheckWeight(math.Nextafter(MaxWeight, math.Inf(1))); err == nil {
		t.Error("CheckWeight accepts a weight above MaxWeight")
	}
	// A half quantum rounds to the even neighbour.
	for _, c := range []struct{ in, want float64 }{
		{0.5 * Quantum, 0}, {1.5 * Quantum, 2 * Quantum}, {2.5 * Quantum, 2 * Quantum}, {1.4 * Quantum, Quantum},
	} {
		if got := Quantise(c.in); got != c.want {
			t.Errorf("Quantise(%v quanta) = %v quanta, want %v", c.in/Quantum, got/Quantum, c.want/Quantum)
		}
	}
}

func TestDijkstraTriangle(t *testing.T) {
	g, ids := buildTriangle(t)
	dist, parent := g.Dijkstra([]NodeID{ids[0]}, nil, math.Inf(1))
	want := []float64{0, 1, 2}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %g, want %g", i, dist[i], w)
		}
	}
	if parent[ids[2]] != ids[1] {
		t.Fatalf("parent(c) = %d, want b: shortest path should avoid the weight-4 edge", parent[ids[2]])
	}
}

func TestDijkstraMultiSourceSeed(t *testing.T) {
	g, ids := buildTriangle(t)
	// Seeded sources model a query point on edge a-b: 0.25 from a, 0.75 from b.
	dist, _ := g.Dijkstra([]NodeID{ids[0], ids[1]}, []float64{0.25, 0.75}, math.Inf(1))
	if dist[ids[0]] != 0.25 || dist[ids[1]] != 0.75 {
		t.Fatalf("seed distances not honored: %v", dist)
	}
	if dist[ids[2]] != 1.75 {
		t.Fatalf("dist(c) = %g, want 1.75", dist[ids[2]])
	}
}

func TestDijkstraBounded(t *testing.T) {
	g, ids := buildTriangle(t)
	dist, _ := g.Dijkstra([]NodeID{ids[0]}, nil, 1.0)
	if dist[ids[1]] != 1 {
		t.Fatalf("dist(b) = %g, want 1", dist[ids[1]])
	}
	if !math.IsInf(dist[ids[2]], 1) {
		t.Fatalf("dist(c) = %g, want +Inf (beyond bound)", dist[ids[2]])
	}
}

func TestDijkstraDisconnected(t *testing.T) {
	g := New(3, 1)
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{X: 1})
	c := g.AddNode(geom.Point{X: 5})
	g.AddEdge(a, b, 1)
	dist, _ := g.Dijkstra([]NodeID{a}, nil, math.Inf(1))
	if !math.IsInf(dist[c], 1) {
		t.Fatalf("dist(c) = %g, want +Inf", dist[c])
	}
	comp, n := g.ConnectedComponents()
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if comp[a] != comp[b] || comp[a] == comp[c] {
		t.Fatalf("component labels wrong: %v", comp)
	}
}

// randomGraph builds a connected random graph with extra random edges.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := New(n, 3*n)
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	// Spanning chain guarantees connectivity.
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(i-1), NodeID(i), 0.1+rng.Float64()*10)
	}
	for i := 0; i < 2*n; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v, 0.1+rng.Float64()*10)
		}
	}
	return g
}

// bellmanFord is an independent shortest-path oracle for cross-validation.
func bellmanFord(g *Graph, src NodeID) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < g.NumNodes(); iter++ {
		changed := false
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(EdgeID(i))
			if dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 30)
		src := NodeID(rng.Intn(g.NumNodes()))
		want := bellmanFord(g, src)
		got, _ := g.Dijkstra([]NodeID{src}, nil, math.Inf(1))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: dist[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestDijkstraParentFormsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 50)
	dist, parent := g.Dijkstra([]NodeID{0}, nil, math.Inf(1))
	for i := range parent {
		if parent[i] == NoNode {
			continue
		}
		// Walking up parents must strictly decrease distance and reach the source.
		steps := 0
		for n := NodeID(i); n != 0; n = parent[n] {
			if parent[n] == NoNode {
				t.Fatalf("node %d: broken parent chain", i)
			}
			if dist[parent[n]] >= dist[n] {
				t.Fatalf("node %d: parent distance not smaller", i)
			}
			if steps++; steps > g.NumNodes() {
				t.Fatalf("node %d: parent cycle", i)
			}
		}
	}
}

func TestBounds(t *testing.T) {
	g := New(2, 0)
	g.AddNode(geom.Point{X: -1, Y: 2})
	g.AddNode(geom.Point{X: 3, Y: -4})
	r := g.Bounds()
	if r.Min.X != -1 || r.Min.Y != -4 || r.Max.X != 3 || r.Max.Y != 2 {
		t.Fatalf("Bounds = %+v", r)
	}
}

func BenchmarkDijkstra10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra([]NodeID{NodeID(i % g.NumNodes())}, nil, math.Inf(1))
	}
}
