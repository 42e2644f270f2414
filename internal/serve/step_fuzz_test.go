package serve

import (
	"math"
	"testing"

	"roadknn"
	"roadknn/internal/core"
	"roadknn/internal/graph"
)

// FuzzStep is "admitted => Step cannot panic" below the wire: arbitrary op
// sequences go through the checked mutators of a Batcher seeded from a
// small generated network — topology adds (checked with graph.CheckEdge, as
// admission does) and removals with id reuse, objects, queries including
// end and reinstall, weights, and invalid values of each — and whatever the
// Batcher accepts is drained and stepped into OVH, IMA, GMA and AUTO. No
// Step may panic, and after every tick each engine's results must equal
// core.BruteForceKNN exactly. Weights reach graph.MaxWeight.
//
// Each input byte is consumed as an opcode or an argument; an exhausted
// input reads as zeros. Opcodes (byte % 8): 0 object, 1 delete object,
// 2 query, 3 end query, 4 weight, 5 add edge, 6 remove edge, 7 tick.
func FuzzStep(f *testing.F) {
	for _, seed := range [][]byte{
		// Objects and a query, tick, move them, tick.
		{0, 1, 3, 2, 0, 2, 5, 1, 2, 1, 3, 4, 2, 7, 0, 1, 4, 3, 2, 1, 0, 6, 1, 7},
		// End and reinstall in one tick with a new k, then a k-less move.
		{0, 1, 3, 2, 2, 1, 2, 3, 2, 7, 3, 1, 2, 1, 4, 4, 2, 7, 2, 1, 0, 9, 4, 7},
		// A weight report, then a removal of its edge in the same tick; then
		// an insertion that reuses the id and an object on it.
		{0, 1, 3, 2, 2, 1, 3, 3, 2, 7, 4, 11, 3, 6, 11, 7, 5, 1, 7, 2, 0, 2, 11, 2, 7},
		// A removal under an applied object and query (both re-snap).
		{0, 1, 6, 2, 2, 1, 3, 6, 1, 7, 6, 6, 7, 0, 1, 7, 1, 7},
		// Invalid values: dead and out-of-range edges, fracs outside [0,1],
		// NaN, k < 1 on an install, bad weights, a self-loop.
		{0, 1, 0, 5, 0, 1, 255, 2, 0, 1, 3, 7, 2, 1, 1, 3, 2, 2, 1, 0, 3, 2, 4, 3, 4, 4, 3, 6, 4, 3, 7, 5, 2, 2, 1, 7},
	} {
		f.Add(seed)
	}
	mk := []func(*roadknn.Network, roadknn.Options) roadknn.Engine{
		roadknn.NewOVHWith, roadknn.NewIMAWith, roadknn.NewGMAWith, roadknn.NewAutoWith,
	}
	fracs := []float64{0, 0.25, 0.5, 1, 0.999, 1.5, -0.25, math.NaN()}
	weights := []float64{0.5, 1, 3, 40, 0, graph.MaxWeight, math.NaN(), math.Inf(1)}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		engs := make([]roadknn.Engine, len(mk))
		for i, m := range mk {
			engs[i] = m(roadknn.GenerateNetwork(30, 1), roadknn.Options{Workers: 1})
			defer engs[i].Close()
		}
		g := engs[0].Network().G
		nodes := g.NumNodes()
		b := NewBatcher()
		b.InitTopology(g.NumEdges(), g.FreeEdgeIDs())

		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			c := ops[0]
			ops = ops[1:]
			return int(c)
		}
		// edge reaches one id below and one above the id space.
		edge := func() roadknn.EdgeID { return roadknn.EdgeID(next()%(len(b.alive)+2) - 1) }
		at := func() roadknn.Position { return roadknn.Position{Edge: edge(), Frac: fracs[next()%len(fracs)]} }
		tick := func() {
			u := b.Drain()
			for _, eng := range engs {
				eng.Step(u)
			}
			if len(u.Topology) > 0 {
				b.ReconcileTopology(u.Topology, engs[0].Network())
			}
			// The batcher's applied objects are where the engine holds them,
			// re-snaps included.
			objs, qrys, _ := b.CheckpointState()
			net := engs[0].Network()
			for _, o := range objs {
				if p, ok := net.ObjectPos(o.ID); !ok || p != o.Pos {
					t.Fatalf("object %d applied at %+v, the engine holds it at %+v (%v)", o.ID, o.Pos, p, ok)
				}
			}
			if len(objs) != net.NumObjects() {
				t.Fatalf("%d objects applied, the engine holds %d", len(objs), net.NumObjects())
			}
			for i, eng := range engs {
				for _, q := range qrys {
					id := roadknn.QueryID(q.ID)
					got, want := eng.Result(id), core.BruteForceKNN(eng.Network(), q.Pos, int(q.K))
					if !sameKNN(got, want) {
						t.Fatalf("%s, query %d at %+v k=%d: %v, brute force %v", eng.Name(), id, q.Pos, q.K, got, want)
					}
				}
				if i > 0 && eng.Network().NumObjects() != engs[0].Network().NumObjects() {
					t.Fatalf("%s holds %d objects, %s %d", eng.Name(), eng.Network().NumObjects(),
						engs[0].Name(), engs[0].Network().NumObjects())
				}
			}
		}
		for len(ops) > 0 {
			switch next() % 8 {
			case 0:
				b.Object(roadknn.ObjectID(next()%8), at())
			case 1:
				b.DeleteObject(roadknn.ObjectID(next() % 8))
			case 2:
				id, k := roadknn.QueryID(next()%6), next()%5-1
				b.Query(id, k, at())
			case 3:
				b.EndQuery(roadknn.QueryID(next() % 6))
			case 4:
				b.Edge(edge(), weights[next()%len(weights)])
			case 5:
				u, v := roadknn.NodeID(next()%(nodes+1)), roadknn.NodeID(next()%(nodes+1))
				if w := weights[next()%len(weights)]; graph.CheckEdge(nodes, u, v, w) == nil {
					b.AddEdge(u, v, w)
				}
			case 6:
				b.RemoveEdge(edge())
			case 7:
				tick()
			}
		}
		tick()
	})
}

// sameKNN reports whether got equals the oracle's want exactly: the same
// objects in the same order, at the same distances bit for bit.
func sameKNN(got, want []roadknn.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Obj != want[i].Obj || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}
