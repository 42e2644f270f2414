package core

import (
	"math/rand"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// lockstepWorld drives OVH, IMA and GMA over identical networks with an
// identical random update stream and cross-validates every result against
// the Dijkstra oracle at every timestamp. This is the repository's primary
// correctness property test: all invariant-restoring paths of IMA (tree
// pruning, re-expansion, influence-list maintenance) and GMA (active-node
// maintenance, Lemma-1 evaluation) are exercised by the random stream.
type lockstepWorld struct {
	t       *testing.T
	rng     *rand.Rand
	engines []Engine
	world   *roadnet.Network // used only to generate coherent random walks
	objPos  map[roadnet.ObjectID]roadnet.Position
	qPos    map[QueryID]roadnet.Position
	qK      map[QueryID]int
	nextObj roadnet.ObjectID
	// topoChurn makes every step open or close a road as well.
	topoChurn bool
}

func newLockstepWorld(t *testing.T, seed int64, edges, nObj, nQry, maxK int) *lockstepWorld {
	t.Helper()
	return newLockstepWorldOf(t, seed, edges, nObj, nQry, maxK, func(build func() *roadnet.Network) []Engine {
		return []Engine{NewOVH(build()), NewIMA(build()), NewGMA(build())}
	})
}

// newLockstepWorldOf is newLockstepWorld over the engines mk builds, each on
// its own copy of the network.
func newLockstepWorldOf(t *testing.T, seed int64, edges, nObj, nQry, maxK int, mk func(build func() *roadnet.Network) []Engine) *lockstepWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	build := func() *roadnet.Network {
		return roadnet.NewNetwork(gen.SanFranciscoLike(edges, seed))
	}
	w := &lockstepWorld{
		t:       t,
		rng:     rng,
		engines: mk(build),
		world:   build(),
		objPos:  make(map[roadnet.ObjectID]roadnet.Position),
		qPos:    make(map[QueryID]roadnet.Position),
		qK:      make(map[QueryID]int),
	}
	for i := 0; i < nObj; i++ {
		id := roadnet.ObjectID(i)
		pos := w.world.UniformPosition(rng)
		w.objPos[id] = pos
		w.world.AddObject(id, pos)
		for _, e := range w.engines {
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
		for _, e := range w.engines {
			e.Register(id, pos, k)
		}
	}
	w.verify("initial")
	return w
}

// editTopology closes a random live edge on even timestamps and opens a road
// between two random nodes on odd ones, in the world network, and follows
// the deterministic re-snaps of the objects and queries the closure strands.
func (w *lockstepWorld) editTopology(ts int) []TopologyUpdate {
	var topo []TopologyUpdate
	if ts%2 == 0 {
		eid := graph.EdgeID(w.rng.Intn(w.world.G.NumEdges()))
		for !w.world.G.EdgeAlive(eid) {
			eid = graph.EdgeID(w.rng.Intn(w.world.G.NumEdges()))
		}
		for _, mv := range w.world.RemoveEdge(eid) {
			w.objPos[mv.ID] = mv.New
		}
		topo = append(topo, TopologyUpdate{Op: TopoRemove, Edge: eid})
	} else {
		u := graph.NodeID(w.rng.Intn(w.world.G.NumNodes()))
		v := graph.NodeID(w.rng.Intn(w.world.G.NumNodes()))
		if u != v {
			wgt := (0.3 + w.rng.Float64()) * w.world.AvgEdgeLength()
			topo = append(topo, TopologyUpdate{Op: TopoAdd, Edge: w.world.AddEdge(u, v, wgt), U: u, V: v, W: wgt})
		}
	}
	w.world.G.Freeze()
	for _, id := range sortedQryIDs(w.qPos) {
		if !w.world.G.EdgeAlive(w.qPos[id].Edge) {
			np, ok := w.world.Resnap(w.qPos[id])
			if !ok {
				w.t.Fatal("no live edge to re-snap a query onto")
			}
			w.qPos[id] = np
		}
	}
	return topo
}

// step generates one timestamp of random updates (object walks, inserts,
// deletes; query walks; edge weight +-10%; with topoChurn a road opening or
// closure first) and applies it to all engines.
func (w *lockstepWorld) step(ts int, fObj, fQry, fEdg float64) {
	var u Updates
	if w.topoChurn {
		u.Topology = w.editTopology(ts)
	}
	for _, id := range sortedObjIDs(w.objPos) {
		pos := w.objPos[id]
		r := w.rng.Float64()
		switch {
		case r < fObj:
			np := w.world.RandomWalk(pos, w.rng.Float64()*3*w.world.AvgEdgeLength(), 0, w.rng)
			u.Objects = append(u.Objects, ObjectUpdate{ID: id, Old: pos, New: np})
			w.objPos[id] = np
			w.world.MoveObject(id, np)
		case r < fObj+0.01 && len(w.objPos) > 2: // occasional deletion
			u.Objects = append(u.Objects, ObjectUpdate{ID: id, Old: pos, Delete: true})
			delete(w.objPos, id)
			w.world.RemoveObject(id)
		}
	}
	if w.rng.Float64() < 0.5 { // occasional insertion
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
		if !w.world.G.EdgeAlive(eid) {
			continue
		}
		cur := w.world.G.Edge(eid).W
		nw := cur * 1.1
		if w.rng.Intn(2) == 0 {
			nw = cur * 0.9
		}
		u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: nw})
		w.world.G.SetWeight(eid, nw)
	}
	for _, e := range w.engines {
		e.Step(u)
	}
	w.verify(w.label(ts))
}

func (w *lockstepWorld) label(ts int) string { return "ts " + itoa(ts) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// verify cross-checks every engine's every result against the oracle run
// on that engine's own network state.
func (w *lockstepWorld) verify(label string) {
	w.t.Helper()
	for qid, pos := range w.qPos {
		for _, e := range w.engines {
			want := BruteForceKNN(e.Network(), pos, w.qK[qid])
			if err := compareResults(e.Result(qid), want); err != nil {
				w.t.Fatalf("%s: %s query %d (k=%d) at %+v: %v",
					label, e.Name(), qid, w.qK[qid], pos, err)
			}
		}
	}
}

func TestLockstepSmallDenseNetwork(t *testing.T) {
	w := newLockstepWorld(t, 101, 60, 30, 8, 4)
	for ts := 1; ts <= 25; ts++ {
		w.step(ts, 0.3, 0.3, 0.1)
	}
}

func TestLockstepSparseObjects(t *testing.T) {
	// Fewer objects than most queries' k: exercises kNN_dist = +Inf paths.
	w := newLockstepWorld(t, 202, 80, 3, 6, 5)
	for ts := 1; ts <= 20; ts++ {
		w.step(ts, 0.5, 0.3, 0.15)
	}
}

func TestLockstepHighEdgeAgility(t *testing.T) {
	w := newLockstepWorld(t, 303, 100, 40, 6, 3)
	for ts := 1; ts <= 20; ts++ {
		w.step(ts, 0.1, 0.1, 0.5)
	}
}

func TestLockstepHighQueryAgility(t *testing.T) {
	w := newLockstepWorld(t, 404, 100, 40, 8, 3)
	for ts := 1; ts <= 20; ts++ {
		w.step(ts, 0.05, 0.9, 0.05)
	}
}

func TestLockstepStaticEverything(t *testing.T) {
	// Nothing moves: results must stay identical across timestamps.
	w := newLockstepWorld(t, 505, 80, 25, 5, 3)
	before := make(map[QueryID][]Neighbor)
	for qid := range w.qPos {
		before[qid] = append([]Neighbor(nil), w.engines[1].Result(qid)...)
	}
	for ts := 1; ts <= 5; ts++ {
		w.step(ts, 0, 0, 0)
	}
	// Note: step always issues at least one edge update; compare against
	// oracle only (done inside step) and check engines agree pairwise.
	for qid := range w.qPos {
		a := w.engines[0].Result(qid)
		b := w.engines[1].Result(qid)
		c := w.engines[2].Result(qid)
		if err := compareResults(b, a); err != nil {
			t.Fatalf("IMA vs OVH query %d: %v", qid, err)
		}
		if err := compareResults(c, a); err != nil {
			t.Fatalf("GMA vs OVH query %d: %v", qid, err)
		}
	}
	_ = before
}

func TestLockstepLargerNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("long lockstep test")
	}
	w := newLockstepWorld(t, 606, 400, 150, 20, 10)
	for ts := 1; ts <= 15; ts++ {
		w.step(ts, 0.2, 0.2, 0.05)
	}
}
