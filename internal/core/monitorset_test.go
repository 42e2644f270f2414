package core

import (
	"math"
	"slices"
	"testing"

	"roadknn/internal/roadnet"
)

func TestILTableAddRemove(t *testing.T) {
	il := newILTable(4)
	m1, m2, absent := &monitor{id: 1}, &monitor{id: 2}, &monitor{id: 99}
	il.add(0, m1)
	il.add(0, m2)
	il.add(3, m1)
	if il.entries() != 3 {
		t.Fatalf("entries = %d, want 3", il.entries())
	}
	seen := map[int32]bool{}
	for _, q := range il.byEdge[0] {
		seen[q.id] = true
	}
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Fatalf("edge 0 lists %v", seen)
	}
	il.remove(0, m1)
	il.remove(0, absent) // absent: no-op
	if il.entries() != 2 {
		t.Fatalf("entries after remove = %d, want 2", il.entries())
	}
	if slices.Contains(il.byEdge[0], m1) {
		t.Fatal("removed query still listed")
	}
}

// TestEdgeUpdateAggregation: multiple weight updates for one edge within a
// timestamp must collapse to the final weight (§4.5).
func TestEdgeUpdateAggregation(t *testing.T) {
	for _, mk := range []func(*roadnet.Network) Engine{
		func(n *roadnet.Network) Engine { return NewOVH(n) },
		func(n *roadnet.Network) Engine { return NewIMA(n) },
		func(n *roadnet.Network) Engine { return NewGMA(n) },
	} {
		net := buildPathNet()
		net.AddObject(1, roadnet.Position{Edge: 2, Frac: 0.5})
		e := mk(net)
		e.Register(1, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
		// Edge 1 bounces 1 -> 5 -> 0.5 within one timestamp.
		e.Step(Updates{Edges: []EdgeUpdate{
			{Edge: 1, NewW: 5},
			{Edge: 1, NewW: 0.5},
		}})
		if got := net.G.Edge(1).W; got != 0.5 {
			t.Fatalf("%s: final weight = %g, want 0.5", e.Name(), got)
		}
		want := BruteForceKNN(net, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
		if err := compareResults(e.Result(1), want); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		// Distance should be 0.5 (to n1) + 0.5 (edge 1) + 0.5 (half edge 2).
		if math.Abs(e.Result(1)[0].Dist-1.5) > 1e-9 {
			t.Fatalf("%s: dist = %g, want 1.5", e.Name(), e.Result(1)[0].Dist)
		}
	}
}

// TestSimultaneousMixedUpdates drives all three update kinds through a
// single Step, which exercises the §4.5 ordering (decrease before increase
// before in-tree moves before object updates).
func TestSimultaneousMixedUpdates(t *testing.T) {
	for _, mk := range []func(*roadnet.Network) Engine{
		func(n *roadnet.Network) Engine { return NewOVH(n) },
		func(n *roadnet.Network) Engine { return NewIMA(n) },
		func(n *roadnet.Network) Engine { return NewGMA(n) },
	} {
		net := buildPathNet()
		net.AddObject(1, roadnet.Position{Edge: 0, Frac: 0.25})
		net.AddObject(2, roadnet.Position{Edge: 3, Frac: 0.75})
		e := mk(net)
		q := roadnet.Position{Edge: 1, Frac: 0.5}
		e.Register(1, q, 2)
		newQ := roadnet.Position{Edge: 2, Frac: 0.25}
		e.Step(Updates{
			Edges: []EdgeUpdate{
				{Edge: 0, NewW: 0.4}, // decrease
				{Edge: 3, NewW: 2.5}, // increase
			},
			Queries: []QueryUpdate{{ID: 1, New: newQ}},
			Objects: []ObjectUpdate{{
				ID: 2, New: roadnet.Position{Edge: 2, Frac: 0.9},
			}},
		})
		want := BruteForceKNN(net, newQ, 2)
		if err := compareResults(e.Result(1), want); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
}

func TestUnregisterCleansInfluenceLists(t *testing.T) {
	net := buildPathNet()
	net.AddObject(1, roadnet.Position{Edge: 2, Frac: 0.5})
	e := NewIMA(net)
	e.Register(1, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
	e.Register(2, roadnet.Position{Edge: 3, Frac: 0.5}, 1)
	if e.set.il.entries() == 0 {
		t.Fatal("no registrations after Register")
	}
	e.Unregister(1)
	e.Unregister(2)
	if got := e.set.il.entries(); got != 0 {
		t.Fatalf("influence table has %d entries after unregistering all", got)
	}
	if e.Result(1) != nil {
		t.Fatal("unregistered query still resolvable")
	}
}

func TestStepWithNoUpdatesKeepsResults(t *testing.T) {
	for _, mk := range []func(*roadnet.Network) Engine{
		func(n *roadnet.Network) Engine { return NewIMA(n) },
		func(n *roadnet.Network) Engine { return NewGMA(n) },
	} {
		net := buildPathNet()
		net.AddObject(1, roadnet.Position{Edge: 2, Frac: 0.5})
		e := mk(net)
		e.Register(1, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
		before := append([]Neighbor(nil), e.Result(1)...)
		for i := 0; i < 3; i++ {
			e.Step(Updates{})
		}
		if err := compareResults(e.Result(1), before); err != nil {
			t.Fatalf("%s: result drifted with no updates: %v", e.Name(), err)
		}
	}
}

// TestDeleteOfUnknownObjectIgnored: a delete of an id the network does not
// hold changes nothing in any engine. It has no departure, so the grouped
// layer has nothing to mark for it.
func TestDeleteOfUnknownObjectIgnored(t *testing.T) {
	for _, e := range pathEngines() {
		e.Network().AddObject(1, roadnet.Position{Edge: 0, Frac: 0.5})
		qpos := roadnet.Position{Edge: 3, Frac: 0.5}
		e.Register(1, qpos, 1)
		e.Step(Updates{Objects: []ObjectUpdate{{ID: 42, Delete: true}, {ID: 1, New: roadnet.Position{Edge: 2, Frac: 0.5}}}})
		if err := compareResults(e.Result(1), BruteForceKNN(e.Network(), qpos, 1)); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		e.Close()
	}
}

func TestMoveUpdateForUnknownQueryIgnored(t *testing.T) {
	for _, mk := range []func(*roadnet.Network) Engine{
		func(n *roadnet.Network) Engine { return NewOVH(n) },
		func(n *roadnet.Network) Engine { return NewIMA(n) },
		func(n *roadnet.Network) Engine { return NewGMA(n) },
	} {
		net := buildPathNet()
		e := mk(net)
		// Must not panic.
		e.Step(Updates{Queries: []QueryUpdate{{ID: 42, New: roadnet.Position{Edge: 0, Frac: 0.5}}}})
		e.Step(Updates{Queries: []QueryUpdate{{ID: 42, Delete: true}}})
		if len(e.Queries()) != 0 {
			t.Fatalf("%s: phantom query appeared", e.Name())
		}
	}
}
