package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/geom"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// checkReserve holds monitor m to invariant 2 against a brute-force
// Dijkstra over the engine's network: every object closer than cover is in
// cand at that distance and on a registered edge, cand holds nothing that
// is not a live object at its cached position and exact distance, cover
// lies between kdist and the nearest unverified node, and the store's
// order, table and result agree with one another.
func checkReserve(m *monitor) error {
	const tol = 1e-6
	net := m.net
	cover := m.cand.cover
	if cover < m.kdist {
		return fmt.Errorf("cover %g below kdist %g", cover, m.kdist)
	}
	if fm := m.frontierMin(); cover > fm+tol {
		return fmt.Errorf("cover %g beyond the nearest unverified node at %g", cover, fm)
	}
	truth := map[roadnet.ObjectID]float64{}
	for _, nb := range BruteForceKNN(net, m.pos, net.NumObjects()) {
		truth[nb.Obj] = nb.Dist
		if nb.Dist >= cover-tol {
			continue
		}
		cd, ok := m.cand.lookup(nb.Obj)
		if !ok {
			return fmt.Errorf("object %d at %g, below cover %g (kdist %g), is not a candidate", nb.Obj, nb.Dist, cover, m.kdist)
		}
		d := m.cand.nb[m.cand.find(nb.Obj, cd)].Dist
		if math.Abs(d-nb.Dist) > tol {
			return fmt.Errorf("object %d held at %g, truly at %g (cover %g)", nb.Obj, d, nb.Dist, cover)
		}
		pos, _ := net.ObjectPos(nb.Obj)
		if _, reg := slices.BinarySearch(m.affEdges, pos.Edge); !reg {
			return fmt.Errorf("object %d at %g, below cover %g (kdist %g), sits on unregistered edge %d", nb.Obj, nb.Dist, cover, m.kdist, pos.Edge)
		}
	}
	keys, edges := m.cand.nb, m.cand.edges
	if len(edges) != len(keys) {
		return fmt.Errorf("%d edges for %d keys", len(edges), len(keys))
	}
	for i, e := range keys {
		if i > 0 && !before(keys[i-1], e.Dist, e.Obj) {
			return fmt.Errorf("keys %d and %d out of order", i-1, i)
		}
		if i >= m.k && e.Dist >= cover {
			return fmt.Errorf("reserve key %d (object %d) at %g, not below cover %g", i, e.Obj, e.Dist, cover)
		}
		if pos, ok := net.ObjectPos(e.Obj); !ok || pos.Edge != edges[i] {
			return fmt.Errorf("key %d: object %d kept on edge %d, registry says %+v (%v)", i, e.Obj, edges[i], pos, ok)
		}
		if math.Abs(e.Dist-truth[e.Obj]) > tol {
			return fmt.Errorf("key %d: object %d held at %g, truly at %g", i, e.Obj, e.Dist, truth[e.Obj])
		}
		if cd, ok := m.cand.lookup(e.Obj); !ok || cd != distCode(e.Dist) || !codeExact(cd) || m.cand.find(e.Obj, cd) != i {
			return fmt.Errorf("key %d: table says (%#x, %v) for object %d at %g", i, cd, ok, e.Obj, e.Dist)
		}
	}
	if inTable := m.cand.dist.Len(); inTable != len(keys) {
		return fmt.Errorf("table holds %d objects, keys %d", inTable, len(keys))
	}
	if len(m.result) != min(m.k, len(keys)) {
		return fmt.Errorf("result has %d of %d keys, k = %d", len(m.result), len(keys), m.k)
	}
	if len(m.result) > 0 && &m.result[0] != &keys[0] {
		return fmt.Errorf("result is not the prefix of the store's keys")
	}
	return nil
}

// TestReserveCompleteBelowCover drives IMA (direct monitors) and GMA (node
// monitors) on the serial and the parallel pipeline through a stream mixing
// every update kind — object moves, arrivals and departures, among them
// objects reported twice in one timestamp and ids deleted and re-inserted
// in one batch; query moves, installs and terminations with mixed k; weight
// changes; edge removals (which re-snap objects) and insertions — and holds
// every monitor to checkReserve after every tick.
func TestReserveCompleteBelowCover(t *testing.T) {
	for _, name := range []string{"IMA", "GMA"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				runReserveChurn(t, name, workers)
			})
		}
	}
}

func runReserveChurn(t *testing.T, name string, workers int) {
	const (
		seed  = 2025
		edges = 160
		nObj  = 220
		nQry  = 18
		ticks = 45
	)
	rng := rand.New(rand.NewSource(seed))
	net := roadnet.NewNetwork(gen.SanFranciscoLike(edges, seed))
	place := fixed(Direct)
	if name == "GMA" {
		place = fixed(Grouped)
	}
	e := NewIncremental(name, net, Options{Workers: workers}, place)
	defer e.Close()

	// The driver reads positions back from the engine's own network (it
	// re-snaps objects and queries under topology edits).
	var objs []roadnet.ObjectID
	for i := 0; i < nObj; i++ {
		id := roadnet.ObjectID(i)
		net.AddObject(id, net.UniformPosition(rng))
		objs = append(objs, id)
	}
	nextObj := roadnet.ObjectID(nObj)
	var qrys []QueryID
	ks := []int{1, 3, 6, 12}
	for i := 0; i < nQry; i++ {
		e.Register(QueryID(i), net.UniformPosition(rng), ks[rng.Intn(len(ks))])
		qrys = append(qrys, QueryID(i))
	}
	nextQry := QueryID(nQry)

	check := func(label string) {
		t.Helper()
		for _, m := range e.set.list {
			if err := checkReserve(m); err != nil {
				t.Fatalf("%s: monitor %d (k=%d, at %+v): %v", label, m.order(), m.k, m.pos, err)
			}
		}
		for _, id := range qrys {
			pos, k, _, _ := e.Placement(id)
			if err := compareResults(e.Result(id), BruteForceKNN(net, pos, k)); err != nil {
				t.Fatalf("%s: query %d: %v", label, id, err)
			}
		}
	}
	check("initial")

	walk := func(pos roadnet.Position) roadnet.Position {
		return net.RandomWalk(pos, rng.Float64()*2*net.AvgEdgeLength(), 0, rng)
	}
	for ts := 1; ts <= ticks; ts++ {
		var u Updates
		removed := graph.NoEdge
		if ts%3 == 0 {
			for removed == graph.NoEdge || !net.G.EdgeAlive(removed) {
				removed = graph.EdgeID(rng.Intn(net.G.NumEdges()))
			}
			u.Topology = append(u.Topology, TopologyUpdate{Op: TopoRemove, Edge: removed})
		}
		if ts%3 == 1 {
			a, b := graph.NodeID(rng.Intn(net.G.NumNodes())), graph.NodeID(rng.Intn(net.G.NumNodes()))
			if a != b {
				u.Topology = append(u.Topology, TopologyUpdate{Op: TopoAdd, Edge: graph.NoEdge, U: a, V: b,
					W: (0.3 + rng.Float64()) * net.AvgEdgeLength()})
			}
		}
		alive := func(p roadnet.Position) bool { return p.Edge != removed }
		// Objects on the edge being removed are re-snapped by the engine
		// first: they keep out of this batch's object updates, except one
		// whose own report arrives as well — two positions in one timestamp.
		resnapped := map[roadnet.ObjectID]bool{}
		if removed != graph.NoEdge {
			for i, oe := range net.ObjectsOn(removed) {
				resnapped[oe.ID] = true
				if np := net.UniformPosition(rng); i == 0 && alive(np) {
					u.Objects = append(u.Objects, ObjectUpdate{ID: oe.ID, New: np})
				}
			}
		}
		kept := objs[:0]
		for _, id := range objs {
			pos, _ := net.ObjectPos(id)
			switch r := rng.Float64(); {
			case resnapped[id]:
			case r < 0.22:
				if np := walk(pos); alive(np) {
					u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: np})
					if r < 0.02 { // and once more, from there
						if np2 := walk(np); alive(np2) {
							u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: np2})
						}
					}
				}
			case r < 0.25:
				u.Objects = append(u.Objects, ObjectUpdate{ID: id, Delete: true})
				if r < 0.235 { // back under the same id, elsewhere
					if np := net.UniformPosition(rng); alive(np) {
						u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: np, Insert: true})
						break
					}
				}
				continue
			}
			kept = append(kept, id)
		}
		objs = kept
		for i := 0; i < 3; i++ {
			if np := net.UniformPosition(rng); alive(np) {
				u.Objects = append(u.Objects, ObjectUpdate{ID: nextObj, New: np, Insert: true})
				objs = append(objs, nextObj)
				nextObj++
			}
		}

		for _, id := range qrys {
			if rng.Float64() < 0.3 {
				pos, _, _, _ := e.Placement(id)
				if np := walk(pos); alive(pos) && alive(np) {
					u.Queries = append(u.Queries, QueryUpdate{ID: id, New: np})
				}
			}
		}
		if ts%4 == 0 {
			i := rng.Intn(len(qrys))
			u.Queries = append(u.Queries, QueryUpdate{ID: qrys[i], Delete: true})
			qrys = slices.Delete(qrys, i, i+1)
		}
		if ts%2 == 0 {
			if np := net.UniformPosition(rng); alive(np) {
				u.Queries = append(u.Queries, QueryUpdate{ID: nextQry, New: np, K: ks[rng.Intn(len(ks))], Insert: true})
				qrys = append(qrys, nextQry)
				nextQry++
			}
		}

		for i := 0; i < 6; i++ {
			eid := graph.EdgeID(rng.Intn(net.G.NumEdges()))
			if !net.G.EdgeAlive(eid) || eid == removed {
				continue
			}
			w := net.G.Edge(eid).W * 0.9
			if rng.Intn(2) == 0 {
				w = net.G.Edge(eid).W * 1.1
			}
			u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: w})
		}

		e.Step(u)
		check(fmt.Sprintf("ts %d", ts))
	}
	if s := e.StepStats(); s.Reexpansions == 0 || s.Recomputes == 0 || s.Affected == 0 {
		t.Fatalf("stream exercised too little: %+v", s)
	}
}

// TestShortComponentIsNotRewalked: a monitor whose component holds fewer
// than k objects has scanned all of it — the heap ran dry, cover is +Inf —
// and an object-only timestamp must not walk it again, whether the result
// stays short, fills up or falls short again.
func TestShortComponentIsNotRewalked(t *testing.T) {
	// Two components: the triangle a-b-c (edges 0: ab, 1: bc, 2: ca) and
	// d - e (edge 3). From the query, a quarter along ab, the nodes lie at
	// 0.25, 0.75 and 1.25 and the far point of the cycle at 1.5.
	g := graph.New(5, 4)
	for i := 0; i < 5; i++ {
		g.AddNode(geom.Point{X: float64(i % 3), Y: float64(i / 2)})
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(3, 4, 1)
	net := roadnet.NewNetwork(g)
	net.AddObject(1, roadnet.Position{Edge: 0, Frac: 0.5})
	net.AddObject(2, roadnet.Position{Edge: 2, Frac: 0.5})
	net.AddObject(8, roadnet.Position{Edge: 3, Frac: 0.2})
	net.AddObject(9, roadnet.Position{Edge: 3, Frac: 0.7})
	e := NewIMAWith(net, Options{Workers: 1})
	defer e.Close()
	qpos := roadnet.Position{Edge: 0, Frac: 0.25}
	e.Register(1, qpos, 3)
	m := e.qt.find(1).mon
	if len(m.result) != 2 || !math.IsInf(m.kdist, 1) || !math.IsInf(m.cand.cover, 1) || m.tree.len() != 3 {
		t.Fatalf("initial: result %v, kdist %g, cover %g, tree %d nodes", m.result, m.kdist, m.cand.cover, m.tree.len())
	}

	step := func(label string, want int, objs ...ObjectUpdate) {
		t.Helper()
		before := e.StepStats()
		e.Step(Updates{Objects: objs})
		s := e.StepStats()
		if s.Affected != before.Affected+1 {
			t.Fatalf("%s: monitor not reached", label)
		}
		if s.NodesVerified != before.NodesVerified || s.Reexpansions != before.Reexpansions || s.Recomputes != before.Recomputes {
			t.Fatalf("%s: went back to the graph: %+v -> %+v", label, before, s)
		}
		if err := compareResults(e.Result(1), BruteForceKNN(net, qpos, 3)); err != nil || len(e.Result(1)) != want {
			t.Fatalf("%s: result %v (want %d): %v", label, e.Result(1), want, err)
		}
		if err := checkReserve(m); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	step("move", 2, ObjectUpdate{ID: 2, New: roadnet.Position{Edge: 2, Frac: 0.9}})
	// The third lands on the far point: k-th at 1.5, every node inside it,
	// nothing to prune.
	step("insert", 3, ObjectUpdate{ID: 3, New: roadnet.Position{Edge: 1, Frac: 0.75}, Insert: true})
	if m.kdist != 1.5 || !math.IsInf(m.cand.cover, 1) {
		t.Fatalf("full: kdist %g, cover %g", m.kdist, m.cand.cover)
	}
	step("delete", 2, ObjectUpdate{ID: 1, Delete: true})
	step("move again", 2, ObjectUpdate{ID: 3, New: roadnet.Position{Edge: 0, Frac: 0.1}})
}

// TestBurstAtCapacityKeepsReserveComplete replays, inside one timestamp, a
// burst of arrivals that overfills the store followed by as many departures
// from the top k — first through the touched list, then with the arrivals
// coming off a pending (non-tree, re-weighted) edge. Whatever the burst
// pushes out for capacity must not be missed when the departures pull the
// k-th back out to where it sat.
func TestBurstAtCapacityKeepsReserveComplete(t *testing.T) {
	const k = 20
	near := func(i int) roadnet.ObjectID { return roadnet.ObjectID(100 + i) }
	for _, workers := range []int{1, 4} {
		for _, viaEdge := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/pendingEdge=%v", workers, viaEdge), func(t *testing.T) {
				// a -(edge 0, 100)- b and a -(edge 1, 1000)- c; the query sits
				// on a, object i at distance i along edge 0 for i = 1..40.
				g := graph.New(3, 2)
				for i := 0; i < 3; i++ {
					g.AddNode(geom.Point{X: float64(i)})
				}
				g.AddEdge(0, 1, 100)
				g.AddEdge(0, 2, 1000)
				net := roadnet.NewNetwork(g)
				at := func(d float64) roadnet.Position { return roadnet.Position{Edge: 0, Frac: d / 100} }
				for i := 1; i <= 40; i++ {
					net.AddObject(roadnet.ObjectID(i), at(float64(i)))
				}
				if viaEdge {
					for i := 0; i < k-1; i++ {
						net.AddObject(near(i), roadnet.Position{Edge: 1, Frac: 0.2 + 0.001*float64(i)})
					}
				}
				e := NewIMAWith(net, Options{Workers: workers})
				defer e.Close()
				qpos := at(0)
				e.Register(1, qpos, k)
				e.Register(2, at(90), 1) // a second monitor, for the parallel pipeline
				m := e.qt.find(1).mon
				if m.cand.len() != reserveCap(k) || m.kdist != k {
					t.Fatalf("initial: %d candidates (cap %d), kdist %g", m.cand.len(), reserveCap(k), m.kdist)
				}

				var u Updates
				del := func(i int) {
					u.Objects = append(u.Objects, ObjectUpdate{ID: roadnet.ObjectID(i), Delete: true})
				}
				del(k)
				if viaEdge {
					// The k-1 objects a fifth along edge 1 come from 200 away to 6.
					u.Edges = append(u.Edges, EdgeUpdate{Edge: 1, NewW: 30})
				} else {
					for i := 0; i < k-1; i++ {
						u.Objects = append(u.Objects, ObjectUpdate{ID: near(i), New: at(0.01 * float64(i+1)), Insert: true})
					}
				}
				for i := 1; i <= k-2; i++ {
					del(i)
				}
				u.Objects = append(u.Objects, ObjectUpdate{ID: 99, New: at(k - 0.5), Insert: true})
				e.Step(u)

				// The k-1 arrivals, then object k-1 — not the one at k-0.5.
				if err := compareResults(e.Result(1), BruteForceKNN(net, qpos, k)); err != nil {
					t.Fatal(err)
				}
				for _, m := range e.set.list {
					if err := checkReserve(m); err != nil {
						t.Fatalf("monitor %d: %v", m.order(), err)
					}
				}
			})
		}
	}
}

// TestCoverStopsAtUnregisteredNode: a verified node at exactly kNN_dist has
// no influence registration on its far edges (invariant 3), so cover must
// not reach past it (invariant 2, last clause) — also after a re-expansion
// that rebuilds the frontier while the registrations stay as they were.
func TestCoverStopsAtUnregisteredNode(t *testing.T) {
	// a -(edge 0, 10)- b -(edge 1, 10)- c, the query on a, k = 2: object 1
	// at 5 and object 2 on b itself, found from b after b was verified.
	g := graph.New(3, 2)
	for i := 0; i < 3; i++ {
		g.AddNode(geom.Point{X: float64(i)})
	}
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	net := roadnet.NewNetwork(g)
	net.AddObject(1, roadnet.Position{Edge: 0, Frac: 0.5})
	net.AddObject(2, roadnet.Position{Edge: 1, Frac: 0})
	e := NewIMAWith(net, Options{Workers: 1})
	defer e.Close()
	qpos := roadnet.Position{Edge: 0, Frac: 0}
	e.Register(1, qpos, 2)
	m := e.qt.find(1).mon
	step := func(label string, cover float64, objs ...ObjectUpdate) {
		t.Helper()
		e.Step(Updates{Objects: objs})
		if err := compareResults(e.Result(1), BruteForceKNN(net, qpos, 2)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := checkReserve(m); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !m.tree.has(1) || m.cand.cover != cover {
			t.Fatalf("%s: b verified: %v, cover %g, want %g", label, m.tree.has(1), m.cand.cover, cover)
		}
	}
	step("initial", 10)
	// kNN_dist shrinks to 7 inside the lazy registration for 10 ...
	step("arrival", 10, ObjectUpdate{ID: 3, New: roadnet.Position{Edge: 0, Frac: 0.7}, Insert: true})
	// ... and grows back to 10 by a re-expansion that verifies nothing and
	// stops at c, 20 away, with edge 1 still unregistered.
	before := e.StepStats()
	step("departure", 10, ObjectUpdate{ID: 3, Delete: true})
	if s := e.StepStats(); s.Reexpansions != before.Reexpansions+1 || s.NodesVerified != before.NodesVerified {
		t.Fatalf("departure: %+v -> %+v", before, s)
	}
	// Nothing reports this one to the monitor.
	step("beyond b", 10, ObjectUpdate{ID: 4, New: roadnet.Position{Edge: 1, Frac: 0.5}, Insert: true})
}
