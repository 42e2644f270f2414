package core

import (
	"fmt"
	"math"
	"testing"

	"roadknn/internal/geom"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// buildPathNet returns a fresh 5-node path network a-b-c-d-e with unit
// weights and objects that tests place themselves.
//
//	a --1-- b --1-- c --1-- d --1-- e
func buildPathNet() *roadnet.Network {
	g := graph.New(5, 4)
	for i := 0; i < 5; i++ {
		g.AddNode(geom.Point{X: float64(i)})
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return roadnet.NewNetwork(g)
}

// engines returns one of each engine over its own identical network.
func pathEngines() []Engine {
	return []Engine{NewOVH(buildPathNet()), NewIMA(buildPathNet()), NewGMA(buildPathNet())}
}

func placeObjects(e Engine, positions map[roadnet.ObjectID]roadnet.Position) {
	for id, p := range positions {
		e.Network().AddObject(id, p)
	}
}

func TestInitialResultSimplePath(t *testing.T) {
	objs := map[roadnet.ObjectID]roadnet.Position{
		1: {Edge: 0, Frac: 0.5}, // at x=0.5, dist 1.25 from query
		2: {Edge: 2, Frac: 0.5}, // at x=2.5, dist 0.75
		3: {Edge: 3, Frac: 0.0}, // at x=3, dist 1.25
	}
	for _, e := range pathEngines() {
		placeObjects(e, objs)
		// Query at x=1.75 (edge 1, frac 0.75).
		e.Register(1, roadnet.Position{Edge: 1, Frac: 0.75}, 2)
		res := e.Result(1)
		if len(res) != 2 {
			t.Fatalf("%s: result len = %d, want 2", e.Name(), len(res))
		}
		if res[0].Obj != 2 || math.Abs(res[0].Dist-0.75) > 1e-9 {
			t.Fatalf("%s: first NN = %+v, want obj 2 at 0.75", e.Name(), res[0])
		}
		// Objects 1 and 3 tie at 1.25; id order breaks the tie.
		if res[1].Obj != 1 || math.Abs(res[1].Dist-1.25) > 1e-9 {
			t.Fatalf("%s: second NN = %+v, want obj 1 at 1.25", e.Name(), res[1])
		}
	}
}

func TestFewerObjectsThanK(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{1: {Edge: 0, Frac: 0}})
		e.Register(1, roadnet.Position{Edge: 3, Frac: 1}, 5)
		res := e.Result(1)
		if len(res) != 1 {
			t.Fatalf("%s: len = %d, want 1", e.Name(), len(res))
		}
		if math.Abs(res[0].Dist-4) > 1e-9 {
			t.Fatalf("%s: dist = %g, want 4", e.Name(), res[0].Dist)
		}
	}
}

func TestObjectMoveUpdatesResult(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{
			1: {Edge: 0, Frac: 0.0},
			2: {Edge: 3, Frac: 1.0},
		})
		q := roadnet.Position{Edge: 1, Frac: 0.5} // x=1.5
		e.Register(1, q, 1)
		if got := e.Result(1)[0].Obj; got != 1 {
			t.Fatalf("%s: initial NN = %d, want 1", e.Name(), got)
		}
		// Object 2 jumps next to the query; object 1 drifts away is implied.
		e.Step(Updates{Objects: []ObjectUpdate{{
			ID: 2, New: roadnet.Position{Edge: 1, Frac: 0.6},
		}}})
		// Offsets 0.5 and 0.6 of a unit edge, each rounded to the quantum.
		res := e.Result(1)
		if want := graph.Quantise(0.6) - 0.5; res[0].Obj != 2 || res[0].Dist != want {
			t.Fatalf("%s: after move NN = %+v, want obj 2 at %v", e.Name(), res[0], want)
		}
	}
}

func TestOutgoingTriggersExpansion(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{
			1: {Edge: 1, Frac: 0.4},
			2: {Edge: 3, Frac: 0.5},
		})
		q := roadnet.Position{Edge: 1, Frac: 0.5}
		e.Register(1, q, 1)
		if e.Result(1)[0].Obj != 1 {
			t.Fatalf("%s: initial NN wrong", e.Name())
		}
		// The only nearby object leaves; result must be re-expanded to find 2.
		e.Step(Updates{Objects: []ObjectUpdate{{
			ID: 1, New: roadnet.Position{Edge: 3, Frac: 1.0},
		}}})
		res := e.Result(1)
		if res[0].Obj != 2 || math.Abs(res[0].Dist-2) > 1e-9 {
			t.Fatalf("%s: after departure NN = %+v, want obj 2 at 2.0", e.Name(), res[0])
		}
	}
}

func TestObjectInsertAndDelete(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{1: {Edge: 3, Frac: 0.5}})
		e.Register(1, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
		e.Step(Updates{Objects: []ObjectUpdate{{
			ID: 9, New: roadnet.Position{Edge: 0, Frac: 0.75}, Insert: true,
		}}})
		if got := e.Result(1)[0].Obj; got != 9 {
			t.Fatalf("%s: after insert NN = %d, want 9", e.Name(), got)
		}
		e.Step(Updates{Objects: []ObjectUpdate{{
			ID: 9, Delete: true,
		}}})
		if got := e.Result(1)[0].Obj; got != 1 {
			t.Fatalf("%s: after delete NN = %d, want 1", e.Name(), got)
		}
	}
}

func TestEdgeWeightIncreaseReroutes(t *testing.T) {
	// Triangle: query on edge a-b; object on far side reachable two ways.
	build := func() *roadnet.Network {
		g := graph.New(3, 3)
		a := g.AddNode(geom.Point{X: 0, Y: 0})
		b := g.AddNode(geom.Point{X: 2, Y: 0})
		c := g.AddNode(geom.Point{X: 1, Y: 2})
		g.AddEdge(a, b, 2) // edge 0
		g.AddEdge(b, c, 2) // edge 1
		g.AddEdge(a, c, 3) // edge 2
		return roadnet.NewNetwork(g)
	}
	for _, e := range []Engine{NewOVH(build()), NewIMA(build()), NewGMA(build())} {
		// Object sits at node c (edge 1 frac 1).
		e.Network().AddObject(1, roadnet.Position{Edge: 1, Frac: 1})
		// Query at midpoint of a-b: via b = 1+2 = 3; via a = 1+3 = 4.
		e.Register(1, roadnet.Position{Edge: 0, Frac: 0.5}, 1)
		if d := e.Result(1)[0].Dist; math.Abs(d-3) > 1e-9 {
			t.Fatalf("%s: initial dist = %g, want 3", e.Name(), d)
		}
		// b-c becomes congested: now via a is shorter.
		e.Step(Updates{Edges: []EdgeUpdate{{Edge: 1, NewW: 10}}})
		if d := e.Result(1)[0].Dist; math.Abs(d-4) > 1e-9 {
			t.Fatalf("%s: after increase dist = %g, want 4", e.Name(), d)
		}
		// And then it clears up below the original weight.
		e.Step(Updates{Edges: []EdgeUpdate{{Edge: 1, NewW: 1}}})
		if d := e.Result(1)[0].Dist; math.Abs(d-2) > 1e-9 {
			t.Fatalf("%s: after decrease dist = %g, want 2", e.Name(), d)
		}
	}
}

func TestQueryMoveWithinTree(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{
			1: {Edge: 0, Frac: 0.5},
			2: {Edge: 3, Frac: 0.5},
		})
		e.Register(1, roadnet.Position{Edge: 1, Frac: 0.5}, 2)
		// Move one edge to the right; both distances shift by 1.
		e.Step(Updates{Queries: []QueryUpdate{{ID: 1, New: roadnet.Position{Edge: 2, Frac: 0.5}}}})
		res := e.Result(1)
		if len(res) != 2 {
			t.Fatalf("%s: len = %d", e.Name(), len(res))
		}
		want := map[roadnet.ObjectID]float64{1: 2.0, 2: 1.0}
		for _, nb := range res {
			if math.Abs(nb.Dist-want[nb.Obj]) > 1e-9 {
				t.Fatalf("%s: obj %d dist = %g, want %g", e.Name(), nb.Obj, nb.Dist, want[nb.Obj])
			}
		}
	}
}

func TestQueryInsertDeleteViaStep(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{1: {Edge: 2, Frac: 0.5}})
		e.Step(Updates{Queries: []QueryUpdate{{ID: 5, New: roadnet.Position{Edge: 2, Frac: 0.0}, K: 1, Insert: true}}})
		if got := len(e.Queries()); got != 1 {
			t.Fatalf("%s: queries = %d, want 1", e.Name(), got)
		}
		if res := e.Result(5); len(res) != 1 || math.Abs(res[0].Dist-0.5) > 1e-9 {
			t.Fatalf("%s: inserted query result = %v", e.Name(), res)
		}
		e.Step(Updates{Queries: []QueryUpdate{{ID: 5, Delete: true}}})
		if got := len(e.Queries()); got != 0 {
			t.Fatalf("%s: queries after delete = %d, want 0", e.Name(), got)
		}
		if e.Result(5) != nil {
			t.Fatalf("%s: deleted query still has result", e.Name())
		}
	}
}

func TestWeightChangeWithoutMovementChangesResult(t *testing.T) {
	// The paper's road-network-specific phenomenon: results change although
	// no object or query moved.
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{
			1: {Edge: 0, Frac: 0.5}, // left of query
			2: {Edge: 2, Frac: 0.5}, // right of query
		})
		e.Register(1, roadnet.Position{Edge: 1, Frac: 0.5}, 1)
		if e.Result(1)[0].Obj != 1 && e.Result(1)[0].Obj != 2 {
			t.Fatalf("%s: unexpected NN", e.Name())
		}
		// Make the left edge very expensive: NN must switch to object 2.
		e.Step(Updates{Edges: []EdgeUpdate{{Edge: 0, NewW: 50}}})
		if got := e.Result(1)[0].Obj; got != 2 {
			t.Fatalf("%s: NN after weight surge = %d, want 2", e.Name(), got)
		}
	}
}

func TestResultSortedAndSized(t *testing.T) {
	for _, e := range pathEngines() {
		for i := 0; i < 10; i++ {
			e.Network().AddObject(roadnet.ObjectID(i), roadnet.Position{
				Edge: graph.EdgeID(i % 4), Frac: float64(i%5) / 5,
			})
		}
		for k := 1; k <= 6; k++ {
			id := QueryID(k)
			e.Register(id, roadnet.Position{Edge: 1, Frac: 0.3}, k)
			res := e.Result(id)
			if len(res) != k {
				t.Fatalf("%s k=%d: len = %d", e.Name(), k, len(res))
			}
			for i := 1; i < len(res); i++ {
				if res[i].Dist < res[i-1].Dist {
					t.Fatalf("%s k=%d: result not sorted: %v", e.Name(), k, res)
				}
			}
		}
	}
}

func TestSizeBytesPositive(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{1: {Edge: 0, Frac: 0.5}})
		e.Register(1, roadnet.Position{Edge: 1, Frac: 0.5}, 1)
		if e.SizeBytes() <= 0 {
			t.Fatalf("%s: SizeBytes = %d", e.Name(), e.SizeBytes())
		}
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	for _, e := range pathEngines() {
		e.Register(1, roadnet.Position{Edge: 0, Frac: 0}, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: duplicate Register did not panic", e.Name())
				}
			}()
			e.Register(1, roadnet.Position{Edge: 0, Frac: 0}, 1)
		}()
	}
}

// TestDuplicateInsertInStepPanics: a batch that installs an id which is
// registered and not terminated by the same batch — or installs one id
// twice — panics with Register's message before the step changes any
// state, in both placements. (The grouped placement used to overwrite the
// query without detaching it: its endpoints stayed active for ever and the
// next result change at one of them dereferenced the deleted query.)
func TestDuplicateInsertInStepPanics(t *testing.T) {
	first := roadnet.Position{Edge: 0, Frac: 0.5}
	again := roadnet.Position{Edge: 3, Frac: 0.5}
	ins := func(pos roadnet.Position) QueryUpdate { return QueryUpdate{ID: 1, New: pos, K: 1, Insert: true} }
	for _, e := range []*Incremental{NewIMA(buildPathNet()), NewGMA(buildPathNet())} {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{7: {Edge: 1, Frac: 0.5}})
		e.Step(Updates{Queries: []QueryUpdate{ins(first)}})
		want := e.Result(1)[0]

		for name, batch := range map[string][]QueryUpdate{
			"registered id":      {ins(again)},
			"twice in one batch": {{ID: 1, Delete: true}, ins(again), ins(again)},
		} {
			func() {
				defer func() {
					if got := recover(); got != "core: query 1 already registered" {
						t.Errorf("%s, %s: recovered %v, want Register's duplicate panic", e.Name(), name, got)
					}
				}()
				e.Step(Updates{
					Objects: []ObjectUpdate{{ID: 7, New: roadnet.Position{Edge: 2, Frac: 0.5}}},
					Queries: batch,
				})
			}()
			if pos, _ := e.Network().ObjectPos(7); pos.Edge != 1 {
				t.Fatalf("%s, %s: the rejected batch moved object 7 to %+v", e.Name(), name, pos)
			}
			if pos, _, _, ok := e.Placement(1); !ok || pos != first {
				t.Fatalf("%s, %s: the rejected batch touched query 1: %+v %v", e.Name(), name, pos, ok)
			}
			if got := e.Result(1)[0]; got != want {
				t.Fatalf("%s, %s: result %v, want %v", e.Name(), name, got, want)
			}
		}

		// Terminate-and-reinstall in one batch is how a query changes k.
		e.Step(Updates{Queries: []QueryUpdate{{ID: 1, Delete: true}, ins(again)}})
		if pos, _, _, _ := e.Placement(1); pos != again {
			t.Fatalf("%s: Delete+Insert left query 1 at %+v", e.Name(), pos)
		}
		e.Step(Updates{Queries: []QueryUpdate{{ID: 1, Delete: true}}})
		if n := len(e.set.list); n != 0 {
			t.Fatalf("%s: %d monitors left after the last query was deleted", e.Name(), n)
		}
		e.Step(Updates{Objects: []ObjectUpdate{{ID: 7, New: roadnet.Position{Edge: 3, Frac: 0.5}}}})
	}
}

func TestResultMatchesOracleAfterEachKindOfUpdate(t *testing.T) {
	for _, e := range pathEngines() {
		placeObjects(e, map[roadnet.ObjectID]roadnet.Position{
			1: {Edge: 0, Frac: 0.25}, 2: {Edge: 1, Frac: 0.75},
			3: {Edge: 2, Frac: 0.5}, 4: {Edge: 3, Frac: 0.1},
		})
		e.Register(1, roadnet.Position{Edge: 1, Frac: 0.2}, 3)
		steps := []Updates{
			{Objects: []ObjectUpdate{{ID: 3, New: roadnet.Position{Edge: 0, Frac: 0.9}}}},
			{Edges: []EdgeUpdate{{Edge: 1, NewW: 0.5}}},
			{Edges: []EdgeUpdate{{Edge: 0, NewW: 3}}},
			{Queries: []QueryUpdate{{ID: 1, New: roadnet.Position{Edge: 2, Frac: 0.9}}}},
			{Objects: []ObjectUpdate{{ID: 4, Delete: true}}},
		}
		for si, u := range steps {
			e.Step(u)
			q, _ := findQueryPos(e, 1)
			want := BruteForceKNN(e.Network(), q, 3)
			if err := compareResults(e.Result(1), want); err != nil {
				t.Fatalf("%s step %d: %v", e.Name(), si, err)
			}
		}
	}
}

// findQueryPos retrieves a query's position through the engine-specific
// state (test helper).
func findQueryPos(e Engine, id QueryID) (roadnet.Position, bool) {
	switch eng := e.(type) {
	case *OVH:
		if r := eng.qt.find(id); r != nil {
			return r.mon.pos, true
		}
	case *Incremental:
		pos, _, _, ok := eng.Placement(id)
		return pos, ok
	}
	return roadnet.Position{}, false
}

// compareResults checks two neighbor lists for exact equality: the same
// objects in the same order at the same distances, bit for bit. Path costs
// are whole numbers of graph.Quantum, so every engine and the oracle sum
// them exactly, whatever the order.
func compareResults(got, want []Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Obj != want[i].Obj || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("entry %d: (%d, %.17g), want (%d, %.17g) (got %v, want %v)",
				i, got[i].Obj, got[i].Dist, want[i].Obj, want[i].Dist, got, want)
		}
	}
	return nil
}
