package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// TestParallelLockstepIdentical drives, for every engine, one serial
// instance (Workers: 1) and parallel instances at several worker counts
// over byte-identical update streams, and requires every query result to be
// exactly identical (same objects, bit-equal distances) to the serial one
// at every timestamp — the parallel pipeline's core contract. Run with
// -race this also exercises the shard phases for data races.
func TestParallelLockstepIdentical(t *testing.T) {
	engines := []struct {
		name string
		mk   func(*roadnet.Network, Options) Engine
	}{
		{"OVH", func(n *roadnet.Network, o Options) Engine { return NewOVHWith(n, o) }},
		{"IMA", func(n *roadnet.Network, o Options) Engine { return NewIMAWith(n, o) }},
		{"GMA", func(n *roadnet.Network, o Options) Engine { return NewGMAWith(n, o) }},
		{"IMA-NF", func(n *roadnet.Network, o Options) Engine { return NewIMAUnfilteredWith(n, o) }},
		{"GMA-naive", func(n *roadnet.Network, o Options) Engine { return NewGMANaiveWith(n, o) }},
	}
	for _, ec := range engines {
		t.Run(ec.name, func(t *testing.T) {
			testParallelLockstep(t, ec.mk)
		})
	}
}

func testParallelLockstep(t *testing.T, mk func(*roadnet.Network, Options) Engine) {
	const (
		seed   = 777
		edges  = 80
		nObj   = 40
		nQry   = 12
		maxK   = 4
		nSteps = 20
		fObj   = 0.3
		fQry   = 0.3
		fEdg   = 0.1
	)
	workerCounts := []int{1, 2, 8}

	build := func() *roadnet.Network {
		return roadnet.NewNetwork(gen.SanFranciscoLike(edges, seed))
	}
	insts := make([]Engine, len(workerCounts))
	for i, w := range workerCounts {
		insts[i] = mk(build(), Options{Workers: w})
	}

	// The stream generator runs on its own copy of the network so that the
	// random walks stay coherent with the evolving edge weights.
	world := build()
	rng := rand.New(rand.NewSource(seed))
	objPos := make(map[roadnet.ObjectID]roadnet.Position)
	qPos := make(map[QueryID]roadnet.Position)
	for i := 0; i < nObj; i++ {
		id := roadnet.ObjectID(i)
		pos := world.UniformPosition(rng)
		objPos[id] = pos
		world.AddObject(id, pos)
		for _, e := range insts {
			e.Network().AddObject(id, pos)
		}
	}
	nextObj := roadnet.ObjectID(nObj)
	for i := 0; i < nQry; i++ {
		id := QueryID(i)
		pos := world.UniformPosition(rng)
		k := 1 + rng.Intn(maxK)
		qPos[id] = pos
		for _, e := range insts {
			e.Register(id, pos, k)
		}
	}
	compareInstances(t, "initial", insts, workerCounts, qPos)

	for ts := 1; ts <= nSteps; ts++ {
		var u Updates
		for _, id := range sortedObjIDs(objPos) {
			pos := objPos[id]
			r := rng.Float64()
			switch {
			case r < fObj:
				np := world.RandomWalk(pos, rng.Float64()*3*world.AvgEdgeLength(), 0, rng)
				u.Objects = append(u.Objects, ObjectUpdate{ID: id, Old: pos, New: np})
				objPos[id] = np
				world.MoveObject(id, np)
			case r < fObj+0.02 && len(objPos) > 2:
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
		for _, id := range sortedQryIDs(qPos) {
			if rng.Float64() < fQry {
				np := world.RandomWalk(qPos[id], rng.Float64()*3*world.AvgEdgeLength(), 0, rng)
				u.Queries = append(u.Queries, QueryUpdate{ID: id, New: np})
				qPos[id] = np
			}
		}
		// Occasional query churn exercises the in-step register paths.
		if ts%7 == 0 {
			id := QueryID(100 + ts)
			pos := world.UniformPosition(rng)
			k := 1 + rng.Intn(maxK)
			u.Queries = append(u.Queries, QueryUpdate{ID: id, New: pos, K: k, Insert: true})
			qPos[id] = pos
		}
		if ts%9 == 0 {
			for id := range qPos {
				u.Queries = append(u.Queries, QueryUpdate{ID: id, Delete: true})
				delete(qPos, id)
				break
			}
		}
		m := world.G.NumEdges()
		for i := 0; i < int(fEdg*float64(m))+1; i++ {
			eid := graph.EdgeID(rng.Intn(m))
			nw := world.G.Edge(eid).W * 1.1
			if rng.Intn(2) == 0 {
				nw = world.G.Edge(eid).W * 0.9
			}
			u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: nw})
			world.G.SetWeight(eid, nw)
		}

		for _, e := range insts {
			e.Step(u)
		}
		compareInstances(t, fmt.Sprintf("ts %d", ts), insts, workerCounts, qPos)
	}
}

// compareInstances requires every instance's every result to be exactly
// equal to the serial instance's (insts[0], Workers: 1).
func compareInstances(t *testing.T, label string, insts []Engine, workerCounts []int, qPos map[QueryID]roadnet.Position) {
	t.Helper()
	serial := insts[0]
	for qid := range qPos {
		want := serial.Result(qid)
		for i := 1; i < len(insts); i++ {
			got := insts[i].Result(qid)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: query %d: workers=%d result %v differs from serial %v",
					label, qid, workerCounts[i], got, want)
			}
		}
	}
}
