package core

// Cross-engine equivalence under live topology churn: OVH, IMA and GMA —
// each at worker counts 1, 2 and 4 — are driven over identical 60-timestamp
// update streams in which every timestamp mixes object updates, query
// updates, edge-weight updates AND edge insertions/removals in one batch.
// Replicas of the same algorithm at different worker counts must produce
// bit-identical results (the parallel pipeline contract extended to
// topology); distinct algorithms must agree within float tolerance; and a
// periodic Dijkstra-oracle audit pins absolute correctness. Edge insertions
// additionally cross-check the deterministic id assignment: the id the
// driver's world network assigned is stamped into the update, and every
// engine panics if its own freelist hands out a different one.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// bitEqualResults enforces exact equality, including the float bit patterns
// of the distances (same algorithm, different worker count).
func bitEqualResults(got, want []Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Obj != want[i].Obj || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("entry %d: (%d, %.17g), want (%d, %.17g)",
				i, got[i].Obj, got[i].Dist, want[i].Obj, want[i].Dist)
		}
	}
	return nil
}

func TestTopologyChurnCrossEngine(t *testing.T) {
	const (
		seed       = 7171
		edges      = 140
		nObj       = 50
		nQry       = 14
		maxK       = 5
		timestamps = 60
	)
	rng := rand.New(rand.NewSource(seed))
	build := func() *roadnet.Network {
		return roadnet.NewNetwork(gen.SanFranciscoLike(edges, seed))
	}
	workerCounts := []int{1, 2, 4}
	// engines[g] holds one algorithm at every worker count; engines[g][0]
	// (workers=1, the serial pipeline) is each group's bit-reference.
	var engines [][]Engine
	for _, mk := range []func(*roadnet.Network, Options) Engine{
		func(n *roadnet.Network, o Options) Engine { return NewOVHWith(n, o) },
		func(n *roadnet.Network, o Options) Engine { return NewIMAWith(n, o) },
		func(n *roadnet.Network, o Options) Engine { return NewGMAWith(n, o) },
	} {
		var grp []Engine
		for _, wk := range workerCounts {
			grp = append(grp, mk(build(), Options{Workers: wk}))
		}
		engines = append(engines, grp)
	}
	all := func(fn func(Engine)) {
		for _, grp := range engines {
			for _, e := range grp {
				fn(e)
			}
		}
	}
	world := build()

	objPos := map[roadnet.ObjectID]roadnet.Position{}
	qPos := map[QueryID]roadnet.Position{}
	qK := map[QueryID]int{}
	for i := 0; i < nObj; i++ {
		id := roadnet.ObjectID(i)
		pos := world.UniformPosition(rng)
		objPos[id] = pos
		world.AddObject(id, pos)
		all(func(e Engine) { e.Network().AddObject(id, pos) })
	}
	nextObj := roadnet.ObjectID(nObj)
	for i := 0; i < nQry; i++ {
		id := QueryID(i)
		pos := world.UniformPosition(rng)
		k := 1 + rng.Intn(maxK)
		qPos[id] = pos
		qK[id] = k
		all(func(e Engine) { e.Register(id, pos, k) })
	}

	compareAll := func(label string) {
		t.Helper()
		for qid := range qPos {
			xref := engines[0][0].Result(qid) // OVH/1: cross-algorithm reference
			for _, grp := range engines {
				ref := grp[0].Result(qid)
				for gi, e := range grp[1:] {
					if err := bitEqualResults(e.Result(qid), ref); err != nil {
						t.Fatalf("%s: %s workers=%d vs workers=1, query %d: %v",
							label, e.Name(), workerCounts[gi+1], qid, err)
					}
				}
				if err := compareResults(ref, xref); err != nil {
					t.Fatalf("%s: %s vs OVH, query %d: %v", label, grp[0].Name(), qid, err)
				}
			}
		}
	}
	auditOracle := func(label string) {
		t.Helper()
		for qid, pos := range qPos {
			for _, grp := range engines {
				e := grp[0]
				want := BruteForceKNN(e.Network(), pos, qK[qid])
				if err := compareResults(e.Result(qid), want); err != nil {
					t.Fatalf("%s: %s query %d vs oracle: %v", label, e.Name(), qid, err)
				}
			}
		}
	}
	compareAll("initial")
	auditOracle("initial")

	liveEdge := func() graph.EdgeID {
		for {
			eid := graph.EdgeID(rng.Intn(world.G.NumEdges()))
			if world.G.EdgeAlive(eid) {
				return eid
			}
		}
	}
	walk := func(pos roadnet.Position) roadnet.Position {
		return world.RandomWalk(pos, rng.Float64()*3*world.AvgEdgeLength(), 0, rng)
	}

	for ts := 1; ts <= timestamps; ts++ {
		var u Updates

		// Topology churn first: it defines the edge set everything else in
		// the batch refers to. Removals every other timestamp, insertions on
		// the remaining ones, and periodically both at once (insertions then
		// reuse the freshest tombstoned id — the LIFO freelist path).
		if ts%2 == 0 || ts%5 == 0 {
			u.Topology = append(u.Topology, TopologyUpdate{Op: TopoRemove, Edge: liveEdge()})
		}
		if ts%2 == 1 || ts%5 == 0 {
			uN := graph.NodeID(rng.Intn(world.G.NumNodes()))
			vN := graph.NodeID(rng.Intn(world.G.NumNodes()))
			if uN != vN {
				w := (0.3 + rng.Float64()) * world.AvgEdgeLength()
				u.Topology = append(u.Topology, TopologyUpdate{Op: TopoAdd, Edge: graph.NoEdge, U: uN, V: vN, W: w})
			}
		}
		// Mirror the ops into the driver's world, recording the assigned ids
		// so every engine's id assignment is cross-checked, and tracking the
		// deterministic re-snaps of objects and queries.
		for i := range u.Topology {
			op := &u.Topology[i]
			if op.Op == TopoRemove {
				for _, mv := range world.RemoveEdge(op.Edge) {
					objPos[mv.ID] = mv.New
				}
			} else {
				op.Edge = world.AddEdge(op.U, op.V, op.W)
			}
		}
		world.G.Freeze()
		for _, id := range sortedQryIDs(qPos) {
			if !world.G.EdgeAlive(qPos[id].Edge) {
				np, ok := world.Resnap(qPos[id])
				if !ok {
					t.Fatal("no live edge to re-snap a query onto")
				}
				qPos[id] = np
			}
		}

		// Object churn over the post-edit topology.
		for _, id := range sortedObjIDs(objPos) {
			pos := objPos[id]
			switch r := rng.Float64(); {
			case r < 0.25:
				np := walk(pos)
				u.Objects = append(u.Objects, ObjectUpdate{ID: id, Old: pos, New: np})
				objPos[id] = np
				world.MoveObject(id, np)
			case r < 0.28 && len(objPos) > 4:
				u.Objects = append(u.Objects, ObjectUpdate{ID: id, Old: pos, Delete: true})
				delete(objPos, id)
				world.RemoveObject(id)
			}
		}
		if rng.Float64() < 0.5 {
			id := nextObj
			nextObj++
			pos := world.UniformPosition(rng)
			u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: pos, Insert: true})
			objPos[id] = pos
			world.AddObject(id, pos)
		}

		// Query churn.
		for _, id := range sortedQryIDs(qPos) {
			if rng.Float64() < 0.3 {
				np := walk(qPos[id])
				u.Queries = append(u.Queries, QueryUpdate{ID: id, New: np})
				qPos[id] = np
			}
		}

		// Weight churn on live edges, including the stale-report path: one
		// update in three timestamps targets the edge removed this very
		// batch, which every engine must drop.
		for i := 0; i < 2+rng.Intn(2); i++ {
			eid := liveEdge()
			w := world.G.Edge(eid).W
			if rng.Intn(2) == 0 {
				w *= 0.9
			} else {
				w *= 1.1
			}
			u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: w})
			world.G.SetWeight(eid, w)
		}
		if ts%3 == 0 && len(u.Topology) > 0 && u.Topology[0].Op == TopoRemove {
			u.Edges = append(u.Edges, EdgeUpdate{Edge: u.Topology[0].Edge, NewW: graph.MaxWeight})
		}

		all(func(e Engine) { e.Step(u) })
		compareAll(fmt.Sprintf("ts %d", ts))
		if ts%10 == 0 || ts == timestamps {
			auditOracle(fmt.Sprintf("ts %d audit", ts))
		}
	}
	all(func(e Engine) { e.Close() })
}
