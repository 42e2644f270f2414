package core

// Randomized cross-validation: many short simulations over many seeds, each
// verifying every engine against the Dijkstra oracle after every timestamp.
// The dump helper prints detailed engine state on divergence, which makes
// failures of the incremental machinery directly diagnosable.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

type replayWorld struct {
	rng     *rand.Rand
	world   *roadnet.Network
	objPos  map[roadnet.ObjectID]roadnet.Position
	qPos    map[QueryID]roadnet.Position
	qK      map[QueryID]int
	nextObj roadnet.ObjectID
}

func newReplay(seed int64, edges, nObj, nQry, maxK int) (*replayWorld, []Engine) {
	rng := rand.New(rand.NewSource(seed))
	build := func() *roadnet.Network {
		return roadnet.NewNetwork(gen.SanFranciscoLike(edges, seed))
	}
	engines := []Engine{NewOVH(build()), NewIMA(build()), NewGMA(build())}
	w := &replayWorld{
		rng: rng, world: build(),
		objPos: map[roadnet.ObjectID]roadnet.Position{},
		qPos:   map[QueryID]roadnet.Position{},
		qK:     map[QueryID]int{},
	}
	for i := 0; i < nObj; i++ {
		id := roadnet.ObjectID(i)
		pos := w.world.UniformPosition(rng)
		w.objPos[id] = pos
		w.world.AddObject(id, pos)
		for _, e := range engines {
			e.Network().AddObject(id, pos)
		}
	}
	w.nextObj = roadnet.ObjectID(nObj)
	for i := 0; i < nQry; i++ {
		id := QueryID(i)
		pos := w.world.UniformPosition(rng)
		k := 1 + rng.Intn(maxK)
		w.qPos[id] = pos
		w.qK[id] = k
		for _, e := range engines {
			e.Register(id, pos, k)
		}
	}
	return w, engines
}

func (w *replayWorld) genStep(fObj, fQry, fEdg float64) Updates {
	var u Updates
	for _, id := range sortedObjIDs(w.objPos) {
		pos := w.objPos[id]
		r := w.rng.Float64()
		switch {
		case r < fObj:
			np := w.world.RandomWalk(pos, w.rng.Float64()*3*w.world.AvgEdgeLength(), 0, w.rng)
			u.Objects = append(u.Objects, ObjectUpdate{ID: id, Old: pos, New: np})
			w.objPos[id] = np
			w.world.MoveObject(id, np)
		case r < fObj+0.01 && len(w.objPos) > 2:
			u.Objects = append(u.Objects, ObjectUpdate{ID: id, Old: pos, Delete: true})
			delete(w.objPos, id)
			w.world.RemoveObject(id)
		}
	}
	if w.rng.Float64() < 0.5 {
		id := w.nextObj
		w.nextObj++
		pos := w.world.UniformPosition(w.rng)
		u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: pos, Insert: true})
		w.objPos[id] = pos
		w.world.AddObject(id, pos)
	}
	for _, id := range sortedQryIDs(w.qPos) {
		pos := w.qPos[id]
		if w.rng.Float64() < fQry {
			np := w.world.RandomWalk(pos, w.rng.Float64()*3*w.world.AvgEdgeLength(), 0, w.rng)
			u.Queries = append(u.Queries, QueryUpdate{ID: id, New: np})
			w.qPos[id] = np
		}
	}
	m := w.world.G.NumEdges()
	for i := 0; i < int(fEdg*float64(m))+1; i++ {
		eid := graph.EdgeID(w.rng.Intn(m))
		cur := w.world.G.Edge(eid).W
		nw := cur * 1.1
		if w.rng.Intn(2) == 0 {
			nw = cur * 0.9
		}
		u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: nw})
		w.world.G.SetWeight(eid, nw)
	}
	return u
}

func TestCrossValidateManySeeds(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(1); seed <= seeds; seed++ {
		w, engines := newReplay(seed, 60, 30, 8, 4)
		for ts := 1; ts <= 25; ts++ {
			u := w.genStep(0.3, 0.3, 0.1)
			for _, e := range engines {
				e.Step(u)
			}
			for _, qid := range sortedQryIDs(w.qPos) {
				pos := w.qPos[qid]
				for _, e := range engines {
					want := BruteForceKNN(e.Network(), pos, w.qK[qid])
					if err := compareResults(e.Result(qid), want); err != nil {
						fmt.Printf("seed %d ts %d %s query %d k=%d: %v\n", seed, ts, e.Name(), qid, w.qK[qid], err)
						w.dump(e, qid, u)
						t.Fatalf("diverged (seed %d)", seed)
					}
				}
			}
		}
	}
}

func (w *replayWorld) dump(e Engine, qid QueryID, u Updates) {
	pos := w.qPos[qid]
	want := BruteForceKNN(e.Network(), pos, w.qK[qid])
	fmt.Printf("updates: %d obj, %d qry, %d edge\n", len(u.Objects), len(u.Queries), len(u.Edges))
	for _, qu := range u.Queries {
		if qu.ID == qid {
			fmt.Printf("  query moved to %+v\n", qu.New)
		}
	}
	missing := map[roadnet.ObjectID]float64{}
	got := map[roadnet.ObjectID]bool{}
	for _, nb := range e.Result(qid) {
		got[nb.Obj] = true
	}
	for _, nb := range want {
		if !got[nb.Obj] {
			missing[nb.Obj] = nb.Dist
		}
	}
	for id, d := range missing {
		op, _ := e.Network().ObjectPos(id)
		fmt.Printf("  missing obj %d trueDist=%g at %+v\n", id, d, op)
		for _, ou := range u.Objects {
			if ou.ID == id {
				fmt.Printf("    its update this ts: %+v\n", ou)
			}
		}
		eng, ok := e.(*Incremental)
		if !ok {
			continue
		}
		switch _, _, mode, _ := eng.Placement(qid); mode {
		case Direct:
			m := eng.qt.find(qid).mon
			reg := slices.Contains(m.affEdges, op.Edge)
			fmt.Printf("    IMA distanceTo=%g kdist=%g tree=%d regOnEdge=%v\n",
				m.distanceTo(op), m.kdist, m.tree.len(), reg)
		case Grouped:
			q := eng.qt.find(qid).grp
			seq := &eng.grp.seqs.Seqs[q.seq]
			fmt.Printf("    GMA kdist=%g seq=%d reachA=%v(%g) reachB=%v(%g) endA=%d endB=%d objSeq=%d\n",
				q.kdist, q.seq, q.reachA, q.distA, q.reachB, q.distB, seq.EndA, seq.EndB, eng.grp.seqs.ByEdge[op.Edge])
			for _, n := range []graph.NodeID{seq.EndA, seq.EndB} {
				if mon := eng.grp.nodeMon[n]; mon != nil {
					inRes := false
					var nd float64
					for _, nb := range mon.result {
						if nb.Obj == id {
							inRes, nd = true, nb.Dist
						}
					}
					wantN := BruteForceKNN(e.Network(), eng.grp.nodePosition(n), mon.k)
					errN := compareResults(mon.result, wantN)
					fmt.Printf("    node %d k=%d kdist=%g hasObj=%v(%g) oracleOK=%v\n",
						n, mon.k, mon.kdist, inRes, nd, errN == nil)
				}
			}
		}
	}
}
