package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// lockstepWorld drives engines over identical networks with an identical
// random update stream and checks every engine's every result exactly —
// same objects, same order, same distance bits — against the Dijkstra
// oracle at every timestamp. It is the package's one stream generator and
// its primary correctness property test: all invariant-restoring paths of
// IMA (tree pruning, re-expansion, influence-list maintenance) and GMA
// (active-node maintenance, Lemma-1 evaluation) are exercised by the random
// stream, and since path costs are exact, engines at different worker
// counts are held to the same bits as the oracle.
type lockstepWorld struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	engines []Engine
	world   *roadnet.Network // the stream's own copy: coherent walks, and the oracle's network
	objPos  map[roadnet.ObjectID]roadnet.Position
	qPos    map[QueryID]roadnet.Position
	qK      map[QueryID]int
	maxK    int
	nextObj roadnet.ObjectID
	nextQry QueryID
	last    Updates // the latest batch, for verify's report
	// topoChurn makes every step open or close a road as well, both at once
	// on every 5th (the opening reuses the closed road's id), and reports a
	// weight on the road closed by every 3rd (on every 15th, the reopened one).
	topoChurn bool
	// churn makes every step insert an object and report one edge twice,
	// installs a query every 5th step and ends one every 7th.
	churn bool
	// idStride spaces the object ids: the n-th object is n * idStride (1
	// when zero), so a stride of 65536 gives every id the same low 16 bits.
	idStride roadnet.ObjectID
	// atNode is the share of placed objects (initial and inserted) put at
	// an end of their edge, where they tie with every object at that node.
	atNode float64
	// ks, when set, is what each query's k is drawn from instead of 1..maxK.
	ks []int
}

// engineKind names one of the package's engine constructors.
type engineKind struct {
	name string
	mk   func(*roadnet.Network, Options) Engine
}

var (
	paperEngines = []engineKind{
		{"OVH", func(n *roadnet.Network, o Options) Engine { return NewOVHWith(n, o) }},
		{"IMA", func(n *roadnet.Network, o Options) Engine { return NewIMAWith(n, o) }},
		{"GMA", func(n *roadnet.Network, o Options) Engine { return NewGMAWith(n, o) }},
	}
	ablationEngines = []engineKind{
		{"IMA-NF", func(n *roadnet.Network, o Options) Engine { return NewIMAUnfilteredWith(n, o) }},
		{"GMA-naive", func(n *roadnet.Network, o Options) Engine { return NewGMANaiveWith(n, o) }},
	}
)

// atWorkers builds every kind once per worker count, each on its own copy
// of the network.
func atWorkers(kinds []engineKind, workers ...int) func(build func() *roadnet.Network) []Engine {
	return func(build func() *roadnet.Network) []Engine {
		var out []Engine
		for _, k := range kinds {
			for _, wk := range workers {
				out = append(out, k.mk(build(), Options{Workers: wk}))
			}
		}
		return out
	}
}

func newLockstepWorld(t *testing.T, seed int64, edges, nObj, nQry, maxK int) *lockstepWorld {
	t.Helper()
	return newLockstepWorldOf(t, seed, edges, nObj, nQry, maxK, func(build func() *roadnet.Network) []Engine {
		return []Engine{NewOVH(build()), NewIMA(build()), NewGMA(build())}
	})
}

// newLockstepWorldOf is newLockstepWorld over the engines mk builds, each on
// its own copy of the network. The engines are closed when the test ends.
// Each setup runs on the world before any object is placed.
func newLockstepWorldOf(t *testing.T, seed int64, edges, nObj, nQry, maxK int, mk func(build func() *roadnet.Network) []Engine, setup ...func(*lockstepWorld)) *lockstepWorld {
	t.Helper()
	return newLockstepWorldOn(t, seed, func() *graph.Graph { return gen.SanFranciscoLike(edges, seed) }, nObj, nQry, maxK, mk, setup...)
}

// newLockstepWorldOn is newLockstepWorldOf on the graphs graphOf builds.
// mk builds the engines before any object is placed.
func newLockstepWorldOn(t *testing.T, seed int64, graphOf func() *graph.Graph, nObj, nQry, maxK int, mk func(build func() *roadnet.Network) []Engine, setup ...func(*lockstepWorld)) *lockstepWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	build := func() *roadnet.Network { return roadnet.NewNetwork(graphOf()) }
	w := &lockstepWorld{
		t:       t,
		seed:    seed,
		rng:     rng,
		engines: mk(build),
		world:   build(),
		objPos:  make(map[roadnet.ObjectID]roadnet.Position),
		qPos:    make(map[QueryID]roadnet.Position),
		qK:      make(map[QueryID]int),
		maxK:    maxK,
		nextObj: roadnet.ObjectID(nObj),
		nextQry: QueryID(nQry),
	}
	for _, f := range setup {
		f(w)
	}
	t.Cleanup(func() {
		for _, e := range w.engines {
			e.Close()
		}
	})
	for i := 0; i < nObj; i++ {
		id := w.objID(roadnet.ObjectID(i))
		pos := w.place()
		w.objPos[id] = pos
		w.world.AddObject(id, pos)
		for _, e := range w.engines {
			e.Network().AddObject(id, pos)
		}
	}
	for i := 0; i < nQry; i++ {
		id := QueryID(i)
		pos := w.world.UniformPosition(rng)
		k := w.drawK()
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
// between two random nodes on odd ones (both on every 5th), in the world
// network, and follows the deterministic re-snaps of the objects and queries
// the closure strands. Each opening carries the id the world assigned it,
// which every engine's own assignment must match.
func (w *lockstepWorld) editTopology(ts int) []TopologyUpdate {
	var topo []TopologyUpdate
	if ts%2 == 0 || ts%5 == 0 {
		eid := graph.EdgeID(w.rng.Intn(w.world.G.NumEdges()))
		for !w.world.G.EdgeAlive(eid) {
			eid = graph.EdgeID(w.rng.Intn(w.world.G.NumEdges()))
		}
		for _, mv := range w.world.RemoveEdge(eid) {
			w.objPos[mv.ID] = mv.New
		}
		topo = append(topo, TopologyUpdate{Op: TopoRemove, Edge: eid})
	}
	if ts%2 == 1 || ts%5 == 0 {
		u := graph.NodeID(w.rng.Intn(w.world.G.NumNodes()))
		v := graph.NodeID(w.rng.Intn(w.world.G.NumNodes()))
		if u != v {
			wgt := (0.3 + w.rng.Float64()) * w.world.AvgEdgeLength()
			topo = append(topo, TopologyUpdate{Op: TopoAdd, Edge: w.world.AddEdge(u, v, wgt), U: u, V: v, W: wgt})
		}
	}
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

// next generates one timestamp of random updates (with topoChurn a road
// opening or closure first; object walks, inserts, deletes; query walks and,
// with churn, installs and ends; edge weight +-10%) and applies it to the
// world only. An object update names where the object goes, never where it
// was: every engine finds that in its own object table.
func (w *lockstepWorld) next(ts int, fObj, fQry, fEdg float64) Updates {
	var u Updates
	if w.topoChurn {
		u.Topology = w.editTopology(ts)
	}
	for _, id := range sortedObjIDs(w.objPos) {
		pos := w.objPos[id]
		r := w.rng.Float64()
		switch {
		case r < fObj:
			np := w.walk(pos)
			u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: np})
			w.objPos[id] = np
			w.world.MoveObject(id, np)
		case r < fObj+0.01 && len(w.objPos) > 2: // occasional deletion
			u.Objects = append(u.Objects, ObjectUpdate{ID: id, Delete: true})
			delete(w.objPos, id)
			w.world.RemoveObject(id)
		}
	}
	inserts := 0
	if w.churn {
		inserts = 1 + w.rng.Intn(2)
	} else if w.rng.Float64() < 0.5 { // occasional insertion
		inserts = 1
	}
	for range inserts {
		id := w.objID(w.nextObj)
		w.nextObj++
		pos := w.place()
		u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: pos, Insert: true})
		w.objPos[id] = pos
		w.world.AddObject(id, pos)
	}
	for _, id := range sortedQryIDs(w.qPos) {
		pos := w.qPos[id]
		if w.rng.Float64() < fQry {
			np := w.walk(pos)
			u.Queries = append(u.Queries, QueryUpdate{ID: id, New: np})
			w.qPos[id] = np
		}
	}
	if w.churn && ts%5 == 0 {
		id := w.nextQry
		w.nextQry++
		pos := w.world.UniformPosition(w.rng)
		k := w.drawK()
		u.Queries = append(u.Queries, QueryUpdate{ID: id, New: pos, K: k, Insert: true})
		w.qPos[id], w.qK[id] = pos, k
	}
	if w.churn && ts%7 == 0 && len(w.qPos) > 4 {
		ids := sortedQryIDs(w.qPos)
		id := ids[w.rng.Intn(len(ids))]
		u.Queries = append(u.Queries, QueryUpdate{ID: id, Delete: true})
		delete(w.qPos, id)
		delete(w.qK, id)
	}
	m := w.world.G.NumEdges()
	for i := 0; i < int(fEdg*float64(m))+1; i++ {
		w.reweigh(&u, graph.EdgeID(w.rng.Intn(m)))
	}
	if w.churn && len(u.Edges) > 0 { // a second report on one edge: the last one holds
		w.reweigh(&u, u.Edges[w.rng.Intn(len(u.Edges))].Edge)
	}
	if w.topoChurn && ts%3 == 0 && len(u.Topology) > 0 && u.Topology[0].Op == TopoRemove {
		// A report on the road this batch closes: every engine drops it,
		// unless the batch reopened the id, whose new road it reweighs.
		eid, nw := u.Topology[0].Edge, 2*w.world.AvgEdgeLength()
		u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: nw})
		if w.world.G.EdgeAlive(eid) {
			w.world.G.SetWeight(eid, nw)
		}
	}
	w.last = u
	return u
}

// place draws a position for an object the world places.
func (w *lockstepWorld) place() roadnet.Position {
	pos := w.world.UniformPosition(w.rng)
	if w.atNode > 0 && w.rng.Float64() < w.atNode {
		pos.Frac = float64(w.rng.Intn(2))
	}
	return pos
}

// drawK draws a new query's k.
func (w *lockstepWorld) drawK() int {
	if len(w.ks) > 0 {
		return w.ks[w.rng.Intn(len(w.ks))]
	}
	return 1 + w.rng.Intn(w.maxK)
}

// objID is the id of the world's n-th object.
func (w *lockstepWorld) objID(n roadnet.ObjectID) roadnet.ObjectID {
	return n * max(w.idStride, 1)
}

func (w *lockstepWorld) walk(pos roadnet.Position) roadnet.Position {
	return w.world.RandomWalk(pos, w.rng.Float64()*3*w.world.AvgEdgeLength(), 0, w.rng)
}

// reweigh reports edge eid, if it is alive, 10% lighter or heavier.
func (w *lockstepWorld) reweigh(u *Updates, eid graph.EdgeID) {
	if !w.world.G.EdgeAlive(eid) {
		return
	}
	nw := w.world.G.Edge(eid).W * 1.1
	if w.rng.Intn(2) == 0 {
		nw = w.world.G.Edge(eid).W * 0.9
	}
	u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: nw})
	w.world.G.SetWeight(eid, nw)
}

// step applies the next timestamp's updates to every engine and verifies
// them.
func (w *lockstepWorld) step(ts int, fObj, fQry, fEdg float64) {
	u := w.next(ts, fObj, fQry, fEdg)
	for _, e := range w.engines {
		e.Step(u)
	}
	w.verify(w.label(ts))
}

func (w *lockstepWorld) label(ts int) string { return fmt.Sprintf("seed %d ts %d", w.seed, ts) }

// verify checks every engine's every result exactly against the oracle run
// on the world network, which every engine's own network must equal.
func (w *lockstepWorld) verify(label string) {
	w.t.Helper()
	for _, qid := range sortedQryIDs(w.qPos) {
		want := BruteForceKNN(w.world, w.qPos[qid], w.qK[qid])
		for _, e := range w.engines {
			if err := compareResults(e.Result(qid), want); err != nil {
				w.t.Fatalf("%s: %s query %d (k=%d) at %+v: %v\n%s",
					label, e.Name(), qid, w.qK[qid], w.qPos[qid], err, w.report(e, qid, want))
			}
		}
	}
}

// report describes a divergence: the latest batch, and for each object the
// oracle has and the engine lacks, where it is and what the engine's state
// says about it, which makes failures of the incremental machinery directly
// diagnosable.
func (w *lockstepWorld) report(e Engine, qid QueryID, want []Neighbor) string {
	var b strings.Builder
	u := w.last
	fmt.Fprintf(&b, "updates: %d obj, %d qry, %d edge, %d topology\n", len(u.Objects), len(u.Queries), len(u.Edges), len(u.Topology))
	for _, qu := range u.Queries {
		if qu.ID == qid {
			fmt.Fprintf(&b, "  query moved to %+v\n", qu.New)
		}
	}
	got := e.Result(qid)
	for _, nb := range want {
		if slices.ContainsFunc(got, func(g Neighbor) bool { return g.Obj == nb.Obj }) {
			continue
		}
		op, _ := e.Network().ObjectPos(nb.Obj)
		fmt.Fprintf(&b, "  missing obj %d trueDist=%g at %+v\n", nb.Obj, nb.Dist, op)
		for _, ou := range u.Objects {
			if ou.ID == nb.Obj {
				fmt.Fprintf(&b, "    its update this ts: %+v\n", ou)
			}
		}
		eng, ok := e.(*Incremental)
		if !ok {
			continue
		}
		switch _, _, mode, _ := eng.Placement(qid); mode {
		case Direct:
			m := eng.qt.find(qid).mon
			fmt.Fprintf(&b, "    IMA distanceTo=%g kdist=%g tree=%d regOnEdge=%v\n",
				m.distanceTo(op), m.kdist, m.tree.len(), slices.Contains(m.affEdges, op.Edge))
		case Grouped:
			q := eng.qt.find(qid).grp
			seq := &eng.grp.seqs.Seqs[q.seq]
			fmt.Fprintf(&b, "    GMA kdist=%g seq=%d reachA=%v reachB=%v endA=%d endB=%d objSeq=%d\n",
				q.kdist, q.seq, q.reachA, q.reachB, seq.EndA, seq.EndB, eng.grp.seqs.ByEdge[op.Edge])
			for _, n := range []graph.NodeID{seq.EndA, seq.EndB} {
				mon := eng.grp.nodeMon[n]
				if mon == nil {
					continue
				}
				i := slices.IndexFunc(mon.result, func(r Neighbor) bool { return r.Obj == nb.Obj })
				errN := compareResults(mon.result, BruteForceKNN(e.Network(), eng.grp.nodePosition(n), mon.k))
				fmt.Fprintf(&b, "    node %d k=%d kdist=%g resultIndex=%d oracleOK=%v\n", n, mon.k, mon.kdist, i, errN == nil)
			}
		}
	}
	return b.String()
}

// TestCountsIndependentOfEditHistory runs one IMA stream over two networks
// with the same edge table: one built directly, the other edited into it
// before any object is placed — a third of its edges removed and re-added
// in reverse order, so that the free list hands back the same ids. Every
// tick must publish the same snapshot bytes and count the same StepStats.
// The network is a grid of unit-length roads (no jitter, no chains) with
// objects sparse enough that trees span several blocks, so equal-cost
// paths abound: which one the expansion keeps, and so the tree and the
// work counted, follows the order of the adjacency rows, which an edit
// history must not change. (Results cannot tell: path costs are exact and
// ties rank by object id.)
func TestCountsIndependentOfEditHistory(t *testing.T) {
	const seed = 17
	cfg := gen.SanFranciscoLikeConfig(400, seed)
	cfg.Jitter, cfg.ChainFraction = 0, 0
	edited := func() *graph.Graph {
		g := gen.RoadNetwork(cfg)
		var removed []graph.EdgeID
		for id := graph.EdgeID(0); int(id) < g.NumEdges(); id += 3 {
			g.RemoveEdge(id)
			removed = append(removed, id)
		}
		for i := len(removed) - 1; i >= 0; i-- {
			e := *g.Edge(removed[i]) // a tombstone stays readable until reused
			if id := g.AddEdge(e.U, e.V, e.W); id != removed[i] {
				t.Fatalf("re-added edge %d got id %d", removed[i], id)
			}
		}
		return g
	}
	opts := Options{Workers: 1, Serving: true}
	w := newLockstepWorldOn(t, seed, func() *graph.Graph { return gen.RoadNetwork(cfg) }, 150, 60, 20,
		func(build func() *roadnet.Network) []Engine {
			return []Engine{NewIMAWith(build(), opts), NewIMAWith(roadnet.NewNetwork(edited()), opts)}
		})
	a, b := w.engines[0].(*Incremental), w.engines[1].(*Incremental)
	for ts := 1; ts <= 30; ts++ {
		w.step(ts, 0.2, 0.2, 0.05)
		if sa, sb := a.StepStats(), b.StepStats(); sa != sb {
			t.Fatalf("ts %d: StepStats built %+v, edited %+v", ts, sa, sb)
		}
		ba, _ := a.Snapshot().MarshalBinary()
		bb, _ := b.Snapshot().MarshalBinary()
		if !slices.Equal(ba, bb) {
			t.Fatalf("ts %d: snapshots differ", ts)
		}
	}
}

func TestLockstepSmallDenseNetwork(t *testing.T) {
	w := newLockstepWorld(t, 101, 60, 30, 8, 4)
	for ts := 1; ts <= 25; ts++ {
		w.step(ts, 0.3, 0.3, 0.1)
	}
}

// TestCrossValidateManySeeds runs many short simulations, one per seed.
func TestCrossValidateManySeeds(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(1); seed <= seeds; seed++ {
		w := newLockstepWorld(t, seed, 60, 30, 8, 4)
		for ts := 1; ts <= 25; ts++ {
			w.step(ts, 0.3, 0.3, 0.1)
		}
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
	// Nothing moves but the one edge report and the occasional insertion
	// every step makes.
	w := newLockstepWorld(t, 505, 80, 25, 5, 3)
	for ts := 1; ts <= 5; ts++ {
		w.step(ts, 0, 0, 0)
	}
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

// TestCrossEngineChurn: sustained churn, in which every timestamp mixes
// object moves, inserts and deletes, query moves, installs and ends, and
// edge reports with one edge reported twice, in one batch.
func TestCrossEngineChurn(t *testing.T) {
	w := newLockstepWorld(t, 4242, 120, 60, 16, 6)
	w.churn = true
	for ts := 1; ts <= 60; ts++ {
		w.step(ts, 0.25, 0.3, 0.02)
	}
}

// TestCrossEngineChurnStridedIDs is TestCrossEngineChurn with object ids
// that all share their low 16 bits, so each table keyed by object id sees
// the ids a client may choose to collide: every engine, ablations included,
// at 1 and 4 workers, must still match the oracle exactly.
func TestCrossEngineChurnStridedIDs(t *testing.T) {
	w := newLockstepWorldOf(t, 4242, 120, 60, 16, 6, atWorkers(slices.Concat(paperEngines, ablationEngines), 1, 4),
		func(w *lockstepWorld) { w.idStride = 65536 })
	w.churn = true
	for ts := 1; ts <= 60; ts++ {
		w.step(ts, 0.25, 0.3, 0.02)
	}
}

// TestTopologyChurnCrossEngine: live topology churn on top of the weight,
// object and query churn, with OVH, IMA and GMA each at 1, 2 and 4 workers.
func TestTopologyChurnCrossEngine(t *testing.T) {
	w := newLockstepWorldOf(t, 7171, 140, 50, 14, 5, atWorkers(paperEngines, 1, 2, 4))
	w.topoChurn = true
	for ts := 1; ts <= 60; ts++ {
		w.step(ts, 0.25, 0.3, 0.015)
	}
}

// TestParallelLockstepIdentical: every engine, ablations included, at
// several worker counts under query churn. Run with -race this also
// exercises the shard phases for data races.
func TestParallelLockstepIdentical(t *testing.T) {
	for _, k := range slices.Concat(paperEngines, ablationEngines) {
		t.Run(k.name, func(t *testing.T) {
			w := newLockstepWorldOf(t, 777, 80, 40, 12, 4, atWorkers([]engineKind{k}, 1, 2, 8))
			w.churn = true
			for ts := 1; ts <= 20; ts++ {
				w.step(ts, 0.3, 0.3, 0.1)
			}
		})
	}
}
