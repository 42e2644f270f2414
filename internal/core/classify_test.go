package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"roadknn/internal/roadnet"
)

// TestRunClassifierMatchesPerPair holds the step's run classifier (route's
// counting sort by edge, deliverRuns and classify) to the per-pair rule it
// replaces: every object report offered to every monitor of its old edge
// (touched when the monitor holds the object) and of its new edge (touched
// when distanceTo its new position is at most cover), re-snaps as arrivals
// first. After each object phase, before finalize consumes them, every
// monitor's touched entries must be exactly the reference's, as a multiset,
// each with the edge and the distance (distanceTo) the monitor finds the
// object at.
//
// The stream adds what a random walk rarely produces: insertions on a
// query's own edge (some at its ends), moves within one edge, and on every
// third tick an object reported twice (late mode). The topology variant
// re-snaps objects off closed roads. Each tick's edge reports and query
// moves are stepped separately afterwards, so that classification sees the
// trees as the previous tick left them, and the world is verified against
// the oracle.
func TestRunClassifierMatchesPerPair(t *testing.T) {
	for _, topo := range []bool{false, true} {
		t.Run(fmt.Sprintf("topology=%v", topo), func(t *testing.T) {
			w := newLockstepWorldOf(t, 4242, 220, 500, 60, 4, func(build func() *roadnet.Network) []Engine {
				return []Engine{NewIMAWith(build(), Options{Workers: 1})}
			}, func(w *lockstepWorld) { w.topoChurn, w.atNode = topo, 0.3 })
			e := w.engines[0].(*Incremental)
			var seen classifierCases
			for ts := 1; ts <= 24; ts++ {
				u := w.next(ts, 0.2, 0.2, 0.05)
				u.Objects = w.addClassifierCases(u.Objects, ts%3 == 0)
				seen.add(checkRunClassifier(t, e, Updates{Topology: u.Topology, Objects: u.Objects}, w.label(ts)))
				e.Step(Updates{Queries: u.Queries, Edges: u.Edges})
				w.verify(w.label(ts))
			}
			t.Logf("touched: %d entries, %d own-edge arrivals, %d within-edge moves, %d in late ticks, %d re-snaps",
				seen.entries, seen.ownEdge, seen.withinEdge, seen.late, seen.resnaps)
			if seen.ownEdge == 0 || seen.withinEdge == 0 || seen.late == 0 || topo && seen.resnaps == 0 {
				t.Errorf("a case never touched a monitor: %+v", seen)
			}
		})
	}
}

// classifierCases counts touched entries of the reference by case, so that
// the test can tell that each case was exercised.
type classifierCases struct{ entries, ownEdge, withinEdge, late, resnaps int }

func (c *classifierCases) add(d classifierCases) {
	c.entries += d.entries
	c.ownEdge += d.ownEdge
	c.withinEdge += d.withinEdge
	c.late += d.late
	c.resnaps += d.resnaps
}

// addClassifierCases appends to objs, and applies to the world, an insertion
// on each of three queries' edges, a move within its edge for two objects
// the batch does not report yet and, with repeat, a second report of an
// object the batch already moved.
func (w *lockstepWorld) addClassifierCases(objs []ObjectUpdate, repeat bool) []ObjectUpdate {
	qids := sortedQryIDs(w.qPos)
	for range 3 {
		id := w.objID(w.nextObj)
		w.nextObj++
		pos := roadnet.Position{Edge: w.qPos[qids[w.rng.Intn(len(qids))]].Edge, Frac: w.rng.Float64()}
		if w.rng.Intn(4) == 0 {
			pos.Frac = float64(w.rng.Intn(2))
		}
		objs = append(objs, ObjectUpdate{ID: id, New: pos, Insert: true})
		w.objPos[id] = pos
		w.world.AddObject(id, pos)
	}
	reported := make(map[roadnet.ObjectID]bool)
	for _, ou := range objs {
		reported[ou.ID] = true
	}
	ids := sortedObjIDs(w.objPos)
	for moved := 0; moved < 2; {
		id := ids[w.rng.Intn(len(ids))]
		if reported[id] {
			continue
		}
		reported[id] = true
		np := roadnet.Position{Edge: w.objPos[id].Edge, Frac: w.rng.Float64()}
		objs = append(objs, ObjectUpdate{ID: id, New: np})
		w.objPos[id] = np
		w.world.MoveObject(id, np)
		moved++
	}
	if repeat {
		for _, ou := range objs {
			if !ou.Insert && !ou.Delete {
				np := w.walk(w.objPos[ou.ID])
				objs = append(objs, ObjectUpdate{ID: ou.ID, New: np})
				w.objPos[ou.ID] = np
				w.world.MoveObject(ou.ID, np)
				break
			}
		}
	}
	return objs
}

// checkRunClassifier runs u (topology and objects only) through e's set as
// Advance and monitorSet.step do, and compares every monitor's touched
// entries after routing with the per-pair reference. It returns what the
// reference touched, by case.
func checkRunClassifier(t *testing.T, e *Incremental, u Updates, label string) classifierCases {
	t.Helper()
	s := e.set
	if len(u.Topology) > 0 {
		s.applyTopology(u.Topology)
	}
	s.epoch++
	s.late = len(s.topoMoves) > 0 || s.seen.repeats(u.Objects)
	s.sharded = false
	s.works = s.works[:0]
	want, cases := perPairTouched(s, u.Objects)

	s.route(u.Objects, nil, nil)
	for _, m := range s.list {
		got := slices.Clone(m.touched)
		sortTouches(got)
		if !slices.Equal(got, want[m]) {
			t.Fatalf("%s: monitor %d touched\n %v\nper pair\n %v", label, m.id, got, want[m])
		}
	}
	s.finish()
	for i := range s.works {
		s.works[i].m = nil
	}
	s.topoMarks, s.topoMoves, s.objs = s.topoMarks[:0], s.topoMoves[:0], nil
	e.Commit()
	return cases
}

// perPairTouched is the reference: the running step's re-snaps and then
// objs, in batch order, offered one (report, monitor) pair at a time, with
// each departure's old edge read from the registry as the batch leaves it.
// It reads the monitors as routing will find them, so it runs before route.
func perPairTouched(s *monitorSet, objs []ObjectUpdate) (map[*monitor][]touch, classifierCases) {
	want := make(map[*monitor][]touch)
	var cases classifierCases
	entry := func(m *monitor, id roadnet.ObjectID, p roadnet.Position) touch {
		switch {
		case s.late:
			return touch{obj: id, edge: lateEdge}
		case p.Edge == goneEdge:
			return touch{obj: id, edge: goneEdge, dist: math.Inf(1)}
		}
		return touch{obj: id, edge: p.Edge, dist: m.distanceTo(p)}
	}
	arrive := func(id roadnet.ObjectID, p roadnet.Position, old roadnet.Position, resnap bool) {
		for _, m := range s.influenced(p.Edge) {
			if m.distanceTo(p) <= m.cand.cover {
				want[m] = append(want[m], entry(m, id, p))
				cases.entries++
				switch {
				case resnap:
					cases.resnaps++
				case p.Edge == old.Edge:
					cases.withinEdge++
				case p.Edge == m.pos.Edge:
					cases.ownEdge++
				}
				if s.late {
					cases.late++
				}
			}
		}
	}
	depart := func(id roadnet.ObjectID, old, p roadnet.Position) {
		for _, m := range s.influenced(old.Edge) {
			if m.cand.contains(id) {
				want[m] = append(want[m], entry(m, id, p))
				cases.entries++
				if s.late {
					cases.late++
				}
			}
		}
	}
	for _, mv := range s.topoMoves {
		arrive(mv.ID, mv.New, roadnet.Position{Edge: -1}, true)
	}
	// at is where the batch has left each object so far.
	at := make(map[roadnet.ObjectID]roadnet.Position)
	gone := roadnet.Position{Edge: goneEdge}
	posOf := func(id roadnet.ObjectID) (roadnet.Position, bool) {
		if p, ok := at[id]; ok {
			return p, p.Edge != goneEdge
		}
		return s.net.ObjectPos(id)
	}
	for _, ou := range objs {
		old, ok := posOf(ou.ID)
		switch {
		case ou.Insert:
			arrive(ou.ID, ou.New, roadnet.Position{Edge: -1}, false)
			at[ou.ID] = ou.New
		case ou.Delete:
			if ok {
				depart(ou.ID, old, gone)
			}
			at[ou.ID] = gone
		default:
			depart(ou.ID, old, ou.New)
			arrive(ou.ID, ou.New, old, false)
			at[ou.ID] = ou.New
		}
	}
	for m := range want {
		sortTouches(want[m])
	}
	return want, cases
}

func sortTouches(ts []touch) {
	slices.SortFunc(ts, func(a, b touch) int {
		return cmp.Or(cmp.Compare(a.obj, b.obj), cmp.Compare(a.edge, b.edge), cmp.Compare(a.dist, b.dist))
	})
}
