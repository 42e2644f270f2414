package roadknn_test

import (
	"math"
	"testing"

	"roadknn"
	"roadknn/internal/graph"
)

// buildCross constructs a small cross-shaped network:
//
//	        n4
//	        |
//	n1 -- n0 -- n2
//	        |
//	        n3
func buildCross(t *testing.T) (*roadknn.Network, []roadknn.EdgeID) {
	t.Helper()
	b := roadknn.NewNetworkBuilder()
	n0 := b.AddNode(0, 0)
	n1 := b.AddNode(-1, 0)
	n2 := b.AddNode(1, 0)
	n3 := b.AddNode(0, -1)
	n4 := b.AddNode(0, 1)
	edges := []roadknn.EdgeID{
		b.AddEdge(n0, n1, 1),
		b.AddEdge(n0, n2, 1),
		b.AddEdge(n0, n3, 1),
		b.AddEdge(n0, n4, 1),
	}
	return b.Build(), edges
}

func TestPublicAPIEndToEnd(t *testing.T) {
	for _, mk := range []func(*roadknn.Network) roadknn.Engine{
		roadknn.NewOVH, roadknn.NewIMA, roadknn.NewGMA, roadknn.NewAuto,
	} {
		net, edges := buildCross(t)
		net.AddObject(1, roadknn.Position{Edge: edges[1], Frac: 0.5})
		net.AddObject(2, roadknn.Position{Edge: edges[3], Frac: 0.9})
		eng := mk(net)
		eng.Register(7, roadknn.Position{Edge: edges[0], Frac: 0.5}, 1)
		res := eng.Result(7)
		if len(res) != 1 || res[0].Obj != 1 {
			t.Fatalf("%s: initial result = %v", eng.Name(), res)
		}
		if math.Abs(res[0].Dist-1.0) > 1e-9 {
			t.Fatalf("%s: dist = %g, want 1.0", eng.Name(), res[0].Dist)
		}
		// Object 2 approaches along the vertical arm.
		eng.Step(roadknn.Updates{Objects: []roadknn.ObjectUpdate{{
			ID:  2,
			New: roadknn.Position{Edge: edges[3], Frac: 0.1},
		}}})
		// 0.5 to n0, then 0.1 of a unit edge rounded to the quantum.
		res = eng.Result(7)
		if want := 0.5 + graph.Quantise(0.1); res[0].Obj != 2 || res[0].Dist != want {
			t.Fatalf("%s: after move = %v, want obj 2 at %v", eng.Name(), res, want)
		}

		// Batches that install and terminate one id: every engine terminates
		// first and installs last, whatever the order of the entries.
		type reg struct {
			pos roadknn.Position
			k   int
		}
		at := func(e, tenths int) roadknn.Position {
			return roadknn.Position{Edge: edges[e], Frac: float64(tenths) / 10}
		}
		ins := func(id roadknn.QueryID, r reg) roadknn.QueryUpdate {
			return roadknn.QueryUpdate{ID: id, New: r.pos, K: r.k, Insert: true}
		}
		del := func(id roadknn.QueryID) roadknn.QueryUpdate { return roadknn.QueryUpdate{ID: id, Delete: true} }
		a, b, c, d := reg{at(2, 3), 2}, reg{at(1, 8), 2}, reg{at(3, 4), 1}, reg{at(0, 1), 2}
		for _, tc := range []struct {
			name  string
			batch []roadknn.QueryUpdate
			want  map[roadknn.QueryID]reg
		}{
			{"insert, delete: new id", []roadknn.QueryUpdate{ins(9, a), del(9)},
				map[roadknn.QueryID]reg{7: {at(0, 5), 1}, 9: a}},
			{"delete, insert: registered id", []roadknn.QueryUpdate{del(7), ins(7, b)},
				map[roadknn.QueryID]reg{7: b, 9: a}},
			{"insert, delete: registered id", []roadknn.QueryUpdate{ins(9, c), del(9)},
				map[roadknn.QueryID]reg{7: b, 9: c}},
			{"insert, move: new id", []roadknn.QueryUpdate{ins(11, d), {ID: 11, New: at(3, 9)}},
				map[roadknn.QueryID]reg{7: b, 9: c, 11: d}},
		} {
			eng.Step(roadknn.Updates{Queries: tc.batch})
			if got := eng.Queries(); len(got) != len(tc.want) {
				t.Fatalf("%s, %s: registered %v, want %d queries", eng.Name(), tc.name, got, len(tc.want))
			}
			for id, r := range tc.want {
				got, want := eng.Result(id), roadknn.SnapshotKNN(eng.Network(), r.pos, r.k)
				if len(got) != len(want) {
					t.Fatalf("%s, %s: query %d = %v, want %v", eng.Name(), tc.name, id, got, want)
				}
				for i := range want {
					if got[i].Obj != want[i].Obj || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("%s, %s: query %d = %v, want %v", eng.Name(), tc.name, id, got, want)
					}
				}
			}
		}
	}
}

func TestGenerateNetworkAndSnapshotKNN(t *testing.T) {
	net := roadknn.GenerateNetwork(500, 3)
	if net.G.NumEdges() < 250 {
		t.Fatalf("generated network too small: %d edges", net.G.NumEdges())
	}
	for i := 0; i < 20; i++ {
		net.AddObject(roadknn.ObjectID(i), roadknn.Position{
			Edge: roadknn.EdgeID(i * 7 % net.G.NumEdges()), Frac: 0.5,
		})
	}
	q := roadknn.Position{Edge: 0, Frac: 0.25}
	res := roadknn.SnapshotKNN(net, q, 5)
	if len(res) != 5 {
		t.Fatalf("SnapshotKNN returned %d results", len(res))
	}
	// Engines must agree with the snapshot answer.
	eng := roadknn.NewIMA(net)
	eng.Register(1, q, 5)
	got := eng.Result(1)
	for i := range res {
		if math.Abs(got[i].Dist-res[i].Dist) > 1e-9 {
			t.Fatalf("engine disagrees with snapshot at %d: %v vs %v", i, got[i], res[i])
		}
	}
}

func TestSnapOntoNetwork(t *testing.T) {
	net, edges := buildCross(t)
	pos, ok := net.Snap(roadknn.Point{X: 0.5, Y: 0.2})
	if !ok || pos.Edge != edges[1] {
		t.Fatalf("Snap = %+v, %v; want edge %d", pos, ok, edges[1])
	}
}
