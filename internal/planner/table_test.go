package planner_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/gen"
	"roadknn/internal/planner"
	"roadknn/internal/roadnet"
)

// placed is what the engines built on core.Incremental (IMA, GMA, AUTO)
// add to Engine for this test: where a query's state lives, and flipping it.
type placed interface {
	Placement(core.QueryID) (roadnet.Position, int, core.Mode, bool)
	SetMode(core.QueryID, core.Mode)
	Advance(core.Updates)
	Commit()
}

// TestQueryTableMatchesModel drives every engine's query table through a
// seeded interleaving of Register / Unregister, in-step installations,
// terminations, install+terminate of one id, moves (of live, unknown and
// just-terminated ids) and — on AUTO — mode flips between Advance and
// Commit, against a plain map. After every step Queries() is the model's ids
// ascending, each exactly once; the snapshot lists the same ids; Placement
// returns the model's position and k; and every result is the oracle's, so a
// row never ends up pointing at another query's state. An id that flips
// Direct <-> Grouped stays found, once, in its new mode.
func TestQueryTableMatchesModel(t *testing.T) {
	opts := core.Options{Workers: 2, Serving: true, Planner: core.PlannerOptions{PlanEvery: 3}}
	for name, mk := range map[string]func(*roadnet.Network) core.Engine{
		"OVH":  func(n *roadnet.Network) core.Engine { return core.NewOVHWith(n, opts) },
		"IMA":  func(n *roadnet.Network) core.Engine { return core.NewIMAWith(n, opts) },
		"GMA":  func(n *roadnet.Network) core.Engine { return core.NewGMAWith(n, opts) },
		"AUTO": func(n *roadnet.Network) core.Engine { return planner.NewWith(n, opts) },
	} {
		t.Run(name, func(t *testing.T) {
			net := roadnet.NewNetwork(gen.SanFranciscoLike(120, 5))
			rng := rand.New(rand.NewSource(23))
			for o := 0; o < 150; o++ {
				net.AddObject(roadnet.ObjectID(o), net.UniformPosition(rng))
			}
			eng := mk(net)
			defer eng.Close()
			pl, _ := eng.(placed)

			type query struct {
				pos roadnet.Position
				k   int
			}
			model := map[core.QueryID]query{}
			live := func() []core.QueryID { return slices.Sorted(maps.Keys(model)) }
			// Ids are drawn from a small range in random order, so rows are
			// inserted and removed all over the table, and ids are reused.
			fresh := func() core.QueryID {
				for {
					if id := core.QueryID(rng.Intn(90)); model[id].k == 0 {
						return id
					}
				}
			}
			random := func() query { return query{net.UniformPosition(rng), 1 + rng.Intn(6)} }
			pick := func(ids []core.QueryID) core.QueryID { return ids[rng.Intn(len(ids))] }

			check := func(label string) {
				t.Helper()
				want := live()
				if got := eng.Queries(); !slices.Equal(got, want) {
					t.Fatalf("%s: Queries() = %v, want %v", label, got, want)
				}
				snap := eng.Snapshot()
				if snap.Len() != len(want) {
					t.Fatalf("%s: snapshot lists %d queries, want %d", label, snap.Len(), len(want))
				}
				for i, id := range want {
					q := model[id]
					oracle := core.BruteForceKNN(net, q.pos, q.k)
					if sid, res := snap.At(i); sid != id || !sameNeighbors(res, oracle) {
						t.Fatalf("%s: snapshot row %d is query %d with %v, want query %d with %v", label, i, sid, res, id, oracle)
					}
					if pl == nil {
						continue
					}
					pos, k, mode, ok := pl.Placement(id)
					if !ok || pos != q.pos || k != q.k {
						t.Fatalf("%s: Placement(%d) = %+v k=%d %v, want %+v k=%d", label, id, pos, k, ok, q.pos, q.k)
					}
					if (name == "IMA" && mode != core.Direct) || (name == "GMA" && mode != core.Grouped) {
						t.Fatalf("%s: query %d is in mode %d", label, id, mode)
					}
				}
				if pl != nil {
					if _, _, _, ok := pl.Placement(fresh()); ok {
						t.Fatalf("%s: Placement finds an unregistered id", label)
					}
				}
			}

			flips := 0
			for ts := 1; ts <= 80; ts++ {
				label := fmt.Sprintf("ts %d", ts)
				// Between steps: one Register, sometimes an Unregister (now and
				// then of an id nobody holds).
				id, q := fresh(), random()
				eng.Register(id, q.pos, q.k)
				model[id] = q
				if rng.Intn(3) == 0 {
					id := fresh()
					if rng.Intn(4) > 0 {
						id = pick(live())
					}
					eng.Unregister(id)
					delete(model, id)
				}
				check(label + ", registered")

				var u core.Updates
				ids := live()
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				ends := 2 + len(ids)/10 // keeps the population around 20 of the 90 ids
				for i, id := range ids {
					switch q := random(); {
					case i < ends: // terminated, with a move of it before and after: both ignored
						u.Queries = append(u.Queries, core.QueryUpdate{ID: id, New: q.pos},
							core.QueryUpdate{ID: id, Delete: true}, core.QueryUpdate{ID: id, New: q.pos})
						delete(model, id)
					case i == ends: // terminated and installed again, the installation first
						u.Queries = append(u.Queries, core.QueryUpdate{ID: id, New: q.pos, K: q.k, Insert: true},
							core.QueryUpdate{ID: id, Delete: true})
						model[id] = q
					case i < ends+6: // moved
						u.Queries = append(u.Queries, core.QueryUpdate{ID: id, New: q.pos})
						model[id] = query{q.pos, model[id].k}
					}
				}
				for range 3 { // installed; a move of it in the same batch is ignored
					id, q := fresh(), random()
					u.Queries = append(u.Queries, core.QueryUpdate{ID: id, New: q.pos, K: q.k, Insert: true},
						core.QueryUpdate{ID: id, New: net.UniformPosition(rng)})
					model[id] = q
				}
				u.Queries = append(u.Queries, core.QueryUpdate{ID: 1000, New: net.UniformPosition(rng)}) // unknown
				for range 20 {
					o := roadnet.ObjectID(rng.Intn(150))
					if !slices.ContainsFunc(u.Objects, func(ou core.ObjectUpdate) bool { return ou.ID == o }) {
						u.Objects = append(u.Objects, core.ObjectUpdate{ID: o, New: net.UniformPosition(rng)})
					}
				}

				if name != "AUTO" || ts%2 == 0 {
					eng.Step(u)
				} else {
					// The planner's own sequence, with this test deciding the
					// flips: they land between Advance and Commit.
					pl.Advance(u)
					for _, id := range live() {
						if rng.Intn(3) > 0 {
							continue
						}
						_, _, mode, _ := pl.Placement(id)
						pl.SetMode(id, core.Grouped-mode)
						if _, _, now, ok := pl.Placement(id); !ok || now == mode {
							t.Fatalf("%s: query %d is in mode %d (%v) after a flip from %d", label, id, now, ok, mode)
						}
						flips++
					}
					pl.Commit()
				}
				check(label + ", stepped")
				if ts%20 == 0 {
					eng.(core.Rebuilder).Rebuild()
					check(label + ", rebuilt")
				}
			}
			if name == "AUTO" && flips < 100 {
				t.Fatalf("only %d mode flips", flips)
			}
		})
	}
}

// TestUnfilteredIMAIsDeterministic: the IMA-NF ablation offers every update
// to every monitor. It used to list them by ranging over a map, so the order
// its monitors were reached in varied from run to run; they now come from
// the set's list, and two runs over one stream publish identical bytes.
func TestUnfilteredIMAIsDeterministic(t *testing.T) {
	run := func() [][]byte {
		net := roadnet.NewNetwork(gen.SanFranciscoLike(100, 3))
		rng := rand.New(rand.NewSource(4))
		for o := 0; o < 80; o++ {
			net.AddObject(roadnet.ObjectID(o), net.UniformPosition(rng))
		}
		eng := core.NewIMAUnfilteredWith(net, core.Options{Workers: 1, Serving: true})
		defer eng.Close()
		for q := 0; q < 25; q++ {
			eng.Register(core.QueryID(q), net.UniformPosition(rng), 1+q%5)
		}
		var out [][]byte
		for ts := 0; ts < 25; ts++ {
			var u core.Updates
			for o := ts % 3; o < 80; o += 3 {
				u.Objects = append(u.Objects, core.ObjectUpdate{ID: roadnet.ObjectID(o), New: net.UniformPosition(rng)})
			}
			for q := ts % 4; q < 25; q += 4 {
				u.Queries = append(u.Queries, core.QueryUpdate{ID: core.QueryID(q), New: net.UniformPosition(rng)})
			}
			u.Edges = append(u.Edges, core.EdgeUpdate{Edge: 7, NewW: 50 + float64(ts%5)*30})
			eng.Step(u)
			out = append(out, eng.Snapshot().AppendBinary(nil))
		}
		return out
	}
	a, b := run(), run()
	for ts := range a {
		if !slices.Equal(a[ts], b[ts]) {
			t.Fatalf("ts %d: two runs of IMA-NF over one stream published different snapshots", ts+1)
		}
	}
}

// TestDeleteWindowCountsDepartureCell: a delete counts in the planner's
// object window at the cell the object left, which the core's object table
// knows and the update does not say, and a delete of an unknown id counts
// nowhere.
func TestDeleteWindowCountsDepartureCell(t *testing.T) {
	net := roadnet.NewNetwork(gen.SanFranciscoLike(400, 1))
	rng := rand.New(rand.NewSource(1))
	for o := 0; o < 50; o++ {
		net.AddObject(roadnet.ObjectID(o), net.UniformPosition(rng))
	}
	p := planner.NewWith(net, core.Options{Workers: 1, Planner: core.PlannerOptions{PlanEvery: 1000}})
	defer p.Close()
	p.Register(0, net.UniformPosition(rng), 3)
	p.Step(core.Updates{}) // the first tick re-plans, which empties the window

	// An object away from edge 0's start, where a zero position would count.
	id, from := roadnet.ObjectID(-1), roadnet.Position{}
	for o := range roadnet.ObjectID(50) {
		if pos, _ := net.ObjectPos(o); p.CellOf(pos) != p.CellOf(roadnet.Position{}) {
			id, from = o, pos
			break
		}
	}
	if id < 0 {
		t.Fatal("every object lies in edge 0's cell")
	}
	p.Step(core.Updates{Objects: []core.ObjectUpdate{{ID: id, Delete: true}, {ID: 999, Delete: true}}})
	for cell, n := range p.WindowObjects() {
		want := uint32(0)
		if int32(cell) == p.CellOf(from) {
			want = 1
		}
		if n != want {
			t.Errorf("cell %d counts %d object updates, want %d (object %d left cell %d)", cell, n, want, id, p.CellOf(from))
		}
	}
}
