package core

import (
	"math"
	"testing"

	"roadknn/internal/geom"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// figure11Net reproduces the paper's Figure 11 network (see §5): n1 has
// degree 5, n2 and n5 degree 3, the chain n1-n7-n6-n5 is a three-edge
// sequence, and n3, n4, n8, n9 are terminals.
func figure11Net() (*roadnet.Network, map[string]graph.NodeID, map[string]graph.EdgeID) {
	g := graph.New(9, 9)
	coords := map[string]geom.Point{
		"n1": {X: 4, Y: 2}, "n2": {X: 7, Y: 2}, "n3": {X: 9, Y: 3},
		"n4": {X: 10, Y: 0}, "n5": {X: 7, Y: 0}, "n6": {X: 4, Y: 0},
		"n7": {X: 2, Y: 0}, "n8": {X: 2, Y: 3}, "n9": {X: 5, Y: 3},
	}
	nodes := map[string]graph.NodeID{}
	for _, name := range []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9"} {
		nodes[name] = g.AddNode(coords[name])
	}
	edges := map[string]graph.EdgeID{}
	add := func(a, b string, w float64) { edges[a+b] = g.AddEdge(nodes[a], nodes[b], w) }
	add("n1", "n8", 2)
	add("n1", "n9", 2)
	add("n1", "n7", 3)
	add("n7", "n6", 2)
	add("n6", "n5", 3)
	add("n1", "n2", 3)
	add("n2", "n3", 2)
	add("n2", "n5", 2)
	add("n5", "n4", 3)
	return roadnet.NewNetwork(g), nodes, edges
}

// figure11Objects places the five objects of the paper's Figure 11:
// p1 on n1n8, p2 on n2n5, p3 on n5n4, p4 on n7n6, p5 on n1n7.
func figure11Objects(net *roadnet.Network, edges map[string]graph.EdgeID) {
	net.AddObject(1, roadnet.Position{Edge: edges["n1n8"], Frac: 0.5})
	net.AddObject(2, roadnet.Position{Edge: edges["n2n5"], Frac: 0.5})
	net.AddObject(3, roadnet.Position{Edge: edges["n5n4"], Frac: 0.3})
	net.AddObject(4, roadnet.Position{Edge: edges["n7n6"], Frac: 0.5})
	net.AddObject(5, roadnet.Position{Edge: edges["n1n7"], Frac: 0.3})
}

func TestGMAActiveNodesForChainQuery(t *testing.T) {
	net, nodes, edges := figure11Net()
	figure11Objects(net, edges)
	e := NewGMA(net)
	// q1 of the paper: a 2-NN query on the chain edge n1n7.
	e.Register(1, roadnet.Position{Edge: edges["n1n7"], Frac: 0.5}, 2)

	// Both chain endpoints n1 and n5 must be active with k=2.
	for _, name := range []string{"n1", "n5"} {
		mon := e.grp.nodeMon[nodes[name]]
		if mon == nil {
			t.Fatalf("%s not active", name)
		}
		if mon.k != 2 {
			t.Fatalf("%s monitored k = %d, want 2", name, mon.k)
		}
	}
	// n2 has no query in an adjacent sequence: inactive.
	if e.grp.nodeMon[nodes["n2"]] != nil {
		t.Fatal("n2 wrongly active")
	}
	// Result must match the oracle.
	want := BruteForceKNN(net, roadnet.Position{Edge: edges["n1n7"], Frac: 0.5}, 2)
	if err := compareResults(e.Result(1), want); err != nil {
		t.Fatal(err)
	}
}

func TestGMATerminalEndpointNotActivated(t *testing.T) {
	net, nodes, edges := figure11Net()
	figure11Objects(net, edges)
	e := NewGMA(net)
	// q3 of the paper sits on sequence {n5n4}: endpoint n4 is a terminal
	// and must not be activated; n5 must be.
	e.Register(3, roadnet.Position{Edge: edges["n5n4"], Frac: 0.8}, 3)
	if e.grp.nodeMon[nodes["n4"]] != nil {
		t.Fatal("terminal n4 wrongly activated")
	}
	if e.grp.nodeMon[nodes["n5"]] == nil {
		t.Fatal("n5 not activated")
	}
	want := BruteForceKNN(net, roadnet.Position{Edge: edges["n5n4"], Frac: 0.8}, 3)
	if err := compareResults(e.Result(3), want); err != nil {
		t.Fatal(err)
	}
}

func TestGMANodeKIsMaxOverQueries(t *testing.T) {
	net, nodes, edges := figure11Net()
	figure11Objects(net, edges)
	e := NewGMA(net)
	e.Register(1, roadnet.Position{Edge: edges["n1n7"], Frac: 0.5}, 2)
	e.Register(3, roadnet.Position{Edge: edges["n5n4"], Frac: 0.8}, 3)
	// n5 serves q1 (k=2, chain) and q3 (k=3): n.k = 3.
	if mon := e.grp.nodeMon[nodes["n5"]]; mon.k != 3 {
		t.Fatalf("n5 k = %d, want 3", mon.k)
	}
	// Removing q3 must lower n5's k back to 2 and keep results valid.
	e.Unregister(3)
	if mon := e.grp.nodeMon[nodes["n5"]]; mon.k != 2 {
		t.Fatalf("after unregister, n5 k = %d, want 2", mon.k)
	}
	// Removing q1 must deactivate n1, n5 entirely.
	e.Unregister(1)
	if len(e.set.list) != 0 {
		t.Fatalf("%d active nodes remain after last unregister", len(e.set.list))
	}
	if e.set.il.entries() != 0 {
		t.Fatalf("influence table not empty: %d", e.set.il.entries())
	}
}

func TestGMAQueryMoveBetweenSequences(t *testing.T) {
	net, nodes, edges := figure11Net()
	figure11Objects(net, edges)
	e := NewGMA(net)
	e.Register(1, roadnet.Position{Edge: edges["n1n7"], Frac: 0.5}, 2)
	// Move the query to sequence {n2n3}.
	newPos := roadnet.Position{Edge: edges["n2n3"], Frac: 0.5}
	e.Step(Updates{Queries: []QueryUpdate{{ID: 1, New: newPos}}})
	// Old chain endpoints should be deactivated, n2 activated.
	if e.grp.nodeMon[nodes["n7"]] != nil {
		t.Fatal("degree-2 node activated")
	}
	if e.grp.nodeMon[nodes["n2"]] == nil {
		t.Fatal("n2 not activated after move")
	}
	if e.grp.nodeMon[nodes["n1"]] != nil {
		t.Fatal("n1 still active after the query left its sequences")
	}
	want := BruteForceKNN(net, newPos, 2)
	if err := compareResults(e.Result(1), want); err != nil {
		t.Fatal(err)
	}
}

func TestGMAIntervalRegistrationWithinSequenceOnly(t *testing.T) {
	net, _, edges := figure11Net()
	figure11Objects(net, edges)
	e := NewGMA(net)
	e.Register(1, roadnet.Position{Edge: edges["n1n7"], Frac: 0.5}, 2)
	q := e.qt.find(1).grp
	seq := &e.grp.seqs.Seqs[q.seq]
	if len(seq.Edges) != 3 || seq.Edges[q.idx] != edges["n1n7"] {
		t.Fatalf("query sits at index %d of sequence %v, want edge %d of the three-edge chain", q.idx, seq.Edges, edges["n1n7"])
	}
	// The reach is counted in edges of the query's own sequence, so it can
	// name no edge outside it as long as it stays within the sequence's ends.
	if q.idx-q.extA < 0 || int(q.idx+q.extB) >= len(seq.Edges) {
		t.Fatalf("reach [%d-%d, %d+%d] leaves the sequence's %d edges", q.idx, q.extA, q.idx, q.extB, len(seq.Edges))
	}
	// The query's own edge must always be influencing, at the query itself
	// and as a whole.
	own := net.G.Edge(q.pos.Edge)
	if !q.influenced(q.idx, roadnet.CostFromU(own, q.pos.Frac), false) || !q.influenced(q.idx, 0, true) {
		t.Fatal("own edge not influencing")
	}
	// kNN_dist is 2.5 (p1 beyond n1 and p4 mid n7n6 tie there): the chain
	// toward n5 is influencing up to p4's position and no further.
	if toward := q.extA + q.extB; toward != 1 {
		t.Fatalf("reach beyond the own edge = %d edges (A %d, B %d), want 1", toward, q.extA, q.extB)
	}
	j := e.grp.seqs.EdgeIndex[edges["n7n6"]]
	at := func(f float64) float64 { return roadnet.CostFromU(net.G.Edge(edges["n7n6"]), f) }
	if !q.influenced(j, at(0.5), false) || q.influenced(j, at(0.9), false) || !q.influenced(j, at(0.9), true) {
		t.Fatal("n7n6 must be influencing up to p4 only (and as a whole for a weight change)")
	}
	if q.influenced(e.grp.seqs.EdgeIndex[edges["n6n5"]], 0.5, true) {
		t.Fatal("n6n5 lies beyond kNN_dist and must not be influencing")
	}
}

func TestGMAActiveNodeChangePropagates(t *testing.T) {
	net, _, edges := figure11Net()
	figure11Objects(net, edges)
	e := NewGMA(net)
	pos := roadnet.Position{Edge: edges["n1n7"], Frac: 0.5}
	e.Register(1, pos, 2)
	// Move an object that is far from the sequence but inside an endpoint's
	// NN set; the query result must follow via the active-node change.
	e.Step(Updates{Objects: []ObjectUpdate{{
		ID:  1,
		New: roadnet.Position{Edge: edges["n1n9"], Frac: 0.1},
	}}})
	want := BruteForceKNN(net, pos, 2)
	if err := compareResults(e.Result(1), want); err != nil {
		t.Fatal(err)
	}
}

func TestGMAPureCycleNetwork(t *testing.T) {
	// A square of degree-2 nodes: one sequence whose endpoints coincide.
	g := graph.New(4, 4)
	pts := [4]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	var ids [4]graph.NodeID
	for i := range ids {
		ids[i] = g.AddNode(pts[i])
	}
	for i := range ids {
		g.AddEdge(ids[i], ids[(i+1)%4], 1)
	}
	net := roadnet.NewNetwork(g)
	net.AddObject(1, roadnet.Position{Edge: 1, Frac: 0.5})
	net.AddObject(2, roadnet.Position{Edge: 3, Frac: 0.5})
	e := NewGMA(net)
	pos := roadnet.Position{Edge: 0, Frac: 0.25}
	e.Register(1, pos, 2)
	want := BruteForceKNN(net, pos, 2)
	if err := compareResults(e.Result(1), want); err != nil {
		t.Fatal(err)
	}
	// Drive a few updates through the cycle topology.
	e.Step(Updates{Objects: []ObjectUpdate{{
		ID: 1, New: roadnet.Position{Edge: 2, Frac: 0.9},
	}}})
	want = BruteForceKNN(net, pos, 2)
	if err := compareResults(e.Result(1), want); err != nil {
		t.Fatal(err)
	}
}

func TestGMAQueryAtIntersectionNode(t *testing.T) {
	net, _, edges := figure11Net()
	figure11Objects(net, edges)
	e := NewGMA(net)
	// Query exactly at n1 (frac 0 of edge n1n8... n1 is U of that edge).
	pos := roadnet.Position{Edge: edges["n1n8"], Frac: 0}
	if net.G.Edge(edges["n1n8"]).U != 0 {
		// Node ids are insertion-ordered: n1 is id 0.
		t.Fatal("test assumption broken: n1 must be U of n1n8")
	}
	e.Register(1, pos, 3)
	want := BruteForceKNN(net, pos, 3)
	if err := compareResults(e.Result(1), want); err != nil {
		t.Fatal(err)
	}
}

func TestGMAFewerObjectsThanK(t *testing.T) {
	net, _, edges := figure11Net()
	net.AddObject(1, roadnet.Position{Edge: edges["n2n3"], Frac: 0.5})
	e := NewGMA(net)
	pos := roadnet.Position{Edge: edges["n1n7"], Frac: 0.2}
	e.Register(1, pos, 4)
	q := e.qt.find(1).grp
	if !q.reachA || !q.reachB {
		t.Fatalf("with kNN_dist=inf both endpoints must be reached: %+v", q)
	}
	if !math.IsInf(q.kdist, 1) {
		t.Fatalf("kdist = %g, want +Inf", q.kdist)
	}
	if len(e.Result(1)) != 1 {
		t.Fatalf("result = %v", e.Result(1))
	}
}
