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

// Mode flips and the grouped layer's lifecycle: a query's state must live
// in exactly one place, and moving it must leave nothing behind.

// flipState flattens everything a flip could leak into comparable form: the
// influence table per edge, the monitors (direct and node) with their k,
// each grouped query's reach along its sequence, the per-sequence and
// per-node query lists (by sorted id), and SizeBytes.
func flipState(e *Incremental) []string {
	var out []string
	for eid, l := range e.set.il.byEdge {
		if len(l) > 0 {
			var keys []int64
			for _, m := range l {
				keys = append(keys, m.order())
			}
			slices.Sort(keys)
			out = append(out, fmt.Sprintf("il %d %v", eid, keys))
		}
	}
	for _, m := range e.set.list {
		out = append(out, fmt.Sprintf("mon %d node=%v k=%d at %+v", m.id, m.track, m.k, m.pos))
	}
	if e.grp != nil {
		ids := func(qs []*gmaQuery) []QueryID {
			var out []QueryID
			for _, q := range qs {
				out = append(out, q.id)
			}
			slices.Sort(out)
			return out
		}
		for q := range e.grp.queries {
			out = append(out, fmt.Sprintf("reach %d: edge %d of %v, A %d %v, own %v, B %d %v",
				q.id, q.idx, e.grp.seqs.Seqs[q.seq].Edges, q.extA, q.ivA, q.ivOwn, q.extB, q.ivB))
		}
		for sid, qs := range e.grp.seqQ {
			if len(qs) > 0 {
				out = append(out, fmt.Sprintf("seqQ %v %v", e.grp.seqs.Seqs[sid].Edges, ids(qs)))
			}
		}
		for n, qs := range e.grp.nodeQ {
			if len(qs) > 0 {
				out = append(out, fmt.Sprintf("nodeQ %d %v", n, ids(qs)))
			}
		}
	}
	out = append(out, fmt.Sprintf("grouped layer %v", e.grp != nil), fmt.Sprintf("size %d", e.SizeBytes()))
	slices.Sort(out)
	return out
}

// TestModeFlipLeavesNoResidue flips every query of an engine to the other
// mode and back — Direct→Grouped→Direct and the reverse — at a tick
// boundary, after some ticks of churn, optionally in the same tick as a
// topology edit. Afterwards the influence table, the monitor set (so the
// active nodes), the grouped queries' reach and lists and SizeBytes must equal
// those of a bare engine that saw the same object, edge and topology
// updates and only then registered the queries in the final mode, and the
// results must be bit-identical: a flip is a from-scratch computation.
func TestModeFlipLeavesNoResidue(t *testing.T) {
	const (
		seed  = 99
		edges = 150
		nObj  = 80
		nQry  = 12
	)
	for _, home := range []Mode{Direct, Grouped} {
		for _, workers := range []int{1, 4} {
			for _, withTopo := range []bool{false, true} {
				name := fmt.Sprintf("home=%d/workers=%d/topology=%v", home, workers, withTopo)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					build := func() *roadnet.Network {
						net := roadnet.NewNetwork(gen.SanFranciscoLike(edges, seed))
						orng := rand.New(rand.NewSource(seed + 1))
						for i := 0; i < nObj; i++ {
							net.AddObject(roadnet.ObjectID(i), net.UniformPosition(orng))
						}
						return net
					}
					away := Grouped
					if home == Grouped {
						away = Direct
					}
					flip := NewIncremental("flip", build(), Options{Workers: workers}, fixed(home))
					bare := NewIncremental("bare", build(), Options{Workers: workers}, fixed(home))
					defer flip.Close()
					defer bare.Close()
					net := flip.Network()
					ks := make([]int, nQry)
					for i := range ks {
						ks[i] = 1 + rng.Intn(6)
						flip.Register(QueryID(i), net.UniformPosition(rng), ks[i])
					}

					// batch builds one tick of object walks, weight changes and
					// query walks (the latter for flip only), avoiding avoid.
					batch := func(avoid graph.EdgeID) (u Updates) {
						for i := 0; i < nObj; i++ {
							if rng.Float64() < 0.3 {
								old, _ := net.ObjectPos(roadnet.ObjectID(i))
								np := net.RandomWalk(old, rng.Float64()*2*net.AvgEdgeLength(), 0, rng)
								if old.Edge != avoid && np.Edge != avoid {
									u.Objects = append(u.Objects, ObjectUpdate{ID: roadnet.ObjectID(i), New: np})
								}
							}
						}
						for i := 0; i < 6; i++ {
							if eid := graph.EdgeID(rng.Intn(net.G.NumEdges())); eid != avoid && net.G.EdgeAlive(eid) {
								u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: net.G.Edge(eid).W * (0.9 + 0.2*rng.Float64())})
							}
						}
						for i := 0; i < nQry; i++ {
							if pos, _, _, _ := flip.Placement(QueryID(i)); rng.Float64() < 0.5 {
								if np := net.RandomWalk(pos, net.AvgEdgeLength(), 0, rng); np.Edge != avoid {
									u.Queries = append(u.Queries, QueryUpdate{ID: QueryID(i), New: np})
								}
							}
						}
						return u
					}
					step := func(u Updates) {
						flip.Advance(u)
						u.Queries = nil
						bare.Advance(u)
					}
					for ts := 0; ts < 6; ts++ {
						step(batch(graph.NoEdge))
						flip.Commit()
						bare.Commit()
					}

					// The flipping tick. With topology, one edge hosting a query
					// is closed (the query re-snaps) and a road is opened.
					avoid := graph.NoEdge
					var topo []TopologyUpdate
					if withTopo {
						pos, _, _, _ := flip.Placement(0)
						avoid = pos.Edge
						topo = []TopologyUpdate{
							{Op: TopoRemove, Edge: avoid},
							{Op: TopoAdd, Edge: graph.NoEdge, U: 3, V: 40, W: net.AvgEdgeLength()},
						}
					}
					u := batch(avoid)
					u.Topology = topo
					step(u)
					for _, to := range []Mode{away, home} {
						for i := 0; i < nQry; i++ {
							flip.SetMode(QueryID(i), to)
						}
						if _, _, mode, _ := flip.Placement(0); mode != to {
							t.Fatalf("query 0 is in mode %d after SetMode(%d)", mode, to)
						}
					}
					flip.Commit()
					bare.Commit()
					for i := 0; i < nQry; i++ {
						pos, k, _, _ := flip.Placement(QueryID(i))
						bare.Register(QueryID(i), pos, k)
					}

					got, want := flipState(flip), flipState(bare)
					if !slices.Equal(got, want) {
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("state differs after the flips:\n got %s\nwant %s", got[i], want[i])
							}
						}
						t.Fatalf("state differs after the flips: %d entries, want %d", len(got), len(want))
					}
					for i := 0; i < nQry; i++ {
						if err := compareResults(flip.Result(QueryID(i)), bare.Result(QueryID(i))); err != nil {
							t.Fatalf("query %d after the flips: %v", i, err)
						}
					}
					if home == Direct && flip.grp != nil {
						t.Fatal("the grouped layer outlived its last query")
					}
				})
			}
		}
	}
}

// TestStaticPlacementsKeepToTheirMode: an all-Direct engine never builds the
// grouped layer — no sequence decomposition at set-up, nothing to keep
// current per tick — and an all-Grouped one holds no direct monitor, over a
// run with every kind of update.
func TestStaticPlacementsKeepToTheirMode(t *testing.T) {
	w := newLockstepWorld(t, 31, 200, 80, 12, 4)
	for ts := 1; ts <= 15; ts++ {
		w.step(ts, 0.3, 0.3, 0.1)
	}
	ima, gma := w.engines[1].(*Incremental), w.engines[2].(*Incremental)
	if ima.grp != nil {
		t.Fatal("IMA built the grouped layer")
	}
	for _, m := range ima.set.list {
		if m.track {
			t.Fatalf("IMA holds node monitor %d", m.id)
		}
	}
	if gma.grp == nil || gma.grp.n != len(w.qPos) {
		t.Fatal("GMA's queries are not all grouped")
	}
	for _, m := range gma.set.list {
		if !m.track {
			t.Fatalf("GMA holds direct monitor %d", m.id)
		}
	}
}
