package roadknn_test

// Live equals fresh: path costs are exact multiples of one quantum, so every
// shortest-path distance is a function of the network alone, not of the
// update history that led to it. After every tick of the identity stream
// (object, query and topology churn), an engine registered from scratch over
// an equal network must publish the live engine's rows bit for bit.

import (
	"math"
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/experiments"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// sameRow reports whether two results agree in objects, order and the bits
// of every distance.
func sameRow(a, b []core.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Obj != b[i].Obj || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// rowDiffs counts the queries of a whose row in b differs or is missing.
func rowDiffs(a, b *core.Snapshot) int {
	n := 0
	for i := range a.Len() {
		id, row := a.At(i)
		if other, ok := b.Lookup(id); !ok || !sameRow(row, other) {
			n++
		}
	}
	return n
}

// copyNetwork builds a network equal to net: the same nodes, the same edge
// ids with the same endpoints and weights, the same tombstones in the same
// freelist order, and every object at its position.
func copyNetwork(net *roadnet.Network) *roadnet.Network {
	src := net.G
	g := graph.New(src.NumNodes(), src.NumEdges())
	for i := range src.NumNodes() {
		g.AddNode(src.Node(graph.NodeID(i)).Pt)
	}
	for i := range src.NumEdges() {
		e := src.Edge(graph.EdgeID(i))
		g.AddEdge(e.U, e.V, e.W)
	}
	for _, id := range src.FreeEdgeIDs() {
		g.RemoveEdge(id)
	}
	out := roadnet.NewNetwork(g)
	net.ForEachObject(func(id roadnet.ObjectID, pos roadnet.Position) { out.AddObject(id, pos) })
	return out
}

type placer interface {
	Placements(yield func(id core.QueryID, pos roadnet.Position, k int, mode core.Mode))
}

func TestLiveEqualsFresh(t *testing.T) {
	for _, engine := range []string{"IMA", "GMA", "AUTO"} {
		for _, workers := range []int{1, 4} {
			rows, diverged := 0, 0
			eng := identityDrive(engine, workers, func(ts int, live core.Engine) {
				fresh := experiments.EngineWith(engine, core.Options{Workers: 1, Serving: true})(copyNetwork(live.Network()))
				defer fresh.Close()
				live.(placer).Placements(func(id core.QueryID, pos roadnet.Position, k int, _ core.Mode) {
					fresh.Register(id, pos, k)
				})
				snap := live.Snapshot()
				rows += snap.Len()
				if d := rowDiffs(snap, fresh.Snapshot()); d > 0 {
					if diverged == 0 {
						t.Logf("%s workers=%d: first divergence at tick %d (%d rows)", engine, workers, ts, d)
					}
					diverged += d
				}
			})
			eng.Close()
			if diverged > 0 {
				t.Errorf("%s workers=%d: %d of %d (query, tick) rows differ from a fresh engine", engine, workers, diverged, rows)
			}
		}
	}
}
