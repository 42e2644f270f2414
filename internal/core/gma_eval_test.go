package core

import (
	"fmt"
	"testing"

	"roadknn/internal/roadnet"
)

// mixedEngine is the adaptive engine's core without the planner: queries are
// placed Direct or Grouped by their edge, and every third tick flips a
// quarter of them to the other mode at the tick boundary, as a re-plan
// would. Placements are a function of the stream alone.
type mixedEngine struct {
	*Incremental
	tick int
}

func newMixed(net *roadnet.Network, o Options) Engine {
	return &mixedEngine{Incremental: NewIncremental("AUTO", net, o, func(pos roadnet.Position) Mode {
		return Mode(pos.Edge % 2)
	})}
}

func (e *mixedEngine) Step(u Updates) {
	e.tick++
	e.Advance(u)
	if e.tick%3 == 0 {
		var flips []QueryID
		var modes []Mode
		e.Placements(func(id QueryID, _ roadnet.Position, _ int, mode Mode) {
			if (int(id)+e.tick)%4 == 0 {
				flips, modes = append(flips, id), append(modes, 1-mode)
			}
		})
		for i, id := range flips {
			e.SetMode(id, modes[i])
		}
	}
	e.Commit()
}

// incrementalOf returns the Incremental engine e is or embeds.
func incrementalOf(e Engine) *Incremental {
	if m, ok := e.(*mixedEngine); ok {
		return m.Incremental
	}
	return e.(*Incremental)
}

// groupedEngines are the engines whose queries are evaluated grouped, all or
// some of them.
var groupedEngines = []engineKind{
	{"GMA", func(n *roadnet.Network, o Options) Engine { return NewGMAWith(n, o) }},
	{"GMA-naive", func(n *roadnet.Network, o Options) Engine { return NewGMANaiveWith(n, o) }},
	{"AUTO", newMixed},
}

// TestEvaluationWorkCounted pins the grouped evaluations' counted work:
// how many evaluations ran and how many entries they read — own-edge and
// walked-edge objects, and node-set entries up to where the walk's bound
// stopped the merge. Under object, query and topology churn the counts
// must be equal at 1 and 4 workers after every tick, and equal to the
// totals recorded below, so an evaluation that reads more (a looser bound)
// or fewer entries, or runs more often, shows here even when every result
// still agrees with the oracle.
func TestEvaluationWorkCounted(t *testing.T) {
	worlds := []struct{ nObj, maxK int }{{90, 12}, {260, 60}}
	want := map[string][2][2]int{ // Evaluations, EvalEntries after the stream, per world
		"GMA":       {{1570, 15944}, {1570, 75948}},
		"GMA-naive": {{1570, 16097}, {1570, 76061}},
		"AUTO":      {{869, 9012}, {856, 42124}},
	}
	for i, kind := range groupedEngines {
		for wi, world := range worlds {
			t.Run(fmt.Sprintf("%s/maxK=%d", kind.name, world.maxK), func(t *testing.T) {
				w := newLockstepWorldOf(t, 4343, 140, world.nObj, 24, world.maxK, atWorkers(groupedEngines[i:i+1], 1, 4))
				w.churn, w.topoChurn = true, true
				serial, parallel := w.engines[0].(interface{ StepStats() StepStats }), w.engines[1].(interface{ StepStats() StepStats })
				for ts := 1; ts <= 60; ts++ {
					w.step(ts, 0.25, 0.3, 0.02)
					if a, b := serial.StepStats(), parallel.StepStats(); a != b {
						t.Fatalf("ts %d: StepStats at 1 worker %+v, at 4 %+v", ts, a, b)
					}
				}
				s := serial.StepStats()
				if got := [2]int{s.Evaluations, s.EvalEntries}; got != want[kind.name][wi] {
					t.Errorf("Evaluations, EvalEntries = %v, want %v", got, want[kind.name][wi])
				}
				if s.EvalEntries <= s.Evaluations {
					t.Errorf("%d evaluations read only %d entries", s.Evaluations, s.EvalEntries)
				}
			})
		}
	}
}

// evaluateRef is the evaluation the linear merge replaced, kept as the
// reference: every candidate — own-edge object, walked-edge object and
// node-set entry alike — is offered to a store with a reserve by add, one
// binary insertion each, and a node set is offered up to its first entry
// beyond kth(). It writes q's evaluated state as evaluate does and returns
// how many entries it read.
func (g *groupLayer) evaluateRef(q *gmaQuery, cand *candStore) (read int) {
	cand.reset(q.k)
	ownEdge := g.net.G.Edge(q.pos.Edge)
	for _, oe := range g.net.ObjectsOn(q.pos.Edge) {
		cand.add(oe.ID, roadnet.ArcCost(ownEdge, oe.Frac, q.pos.Frac), q.pos.Edge)
		read++
	}
	seq := &g.seqs.Seqs[q.seq]
	var covered []walkEdge
	walk := func(dir int) bool {
		idx := int(q.idx)
		node, j := seq.Nodes[idx], idx-1
		if dir > 0 {
			node, j = seq.Nodes[idx+1], idx+1
		}
		d := roadnet.CostFrom(g.net.G.Edge(q.pos.Edge), node, q.pos.Frac)
		for {
			if !g.naiveEval && d > cand.kth() {
				return false
			}
			if (dir > 0 && j == len(seq.Edges)) || (dir < 0 && j == -1) {
				if g.net.G.Degree(node) > 1 {
					for _, nb := range g.nodeMon[node].result {
						if d+nb.Dist > cand.kth() {
							break
						}
						cand.add(nb.Obj, d+nb.Dist, q.pos.Edge)
						read++
					}
				}
				return true
			}
			eid := seq.Edges[j]
			ed := g.net.G.Edge(eid)
			for _, oe := range g.net.ObjectsOn(eid) {
				cand.add(oe.ID, d+roadnet.CostFrom(ed, node, oe.Frac), eid)
				read++
			}
			covered = append(covered, walkEdge{w: ed.W, dEntry: d, fromU: ed.U == node})
			d += ed.W
			node = ed.Other(node)
			j += dir
		}
	}
	q.reachB = walk(+1)
	nB := len(covered)
	q.reachA = walk(-1)
	res, _ := cand.finalize()
	q.result = append(q.result[:0], res...)
	q.kdist = cand.kth()
	at := roadnet.CostFromU(ownEdge, q.pos.Frac)
	q.ivOwn = qInterval{lo: at - q.kdist, hi: at + q.kdist}
	q.extB, q.ivB = reach(q.kdist, covered[:nB])
	q.extA, q.ivA = reach(q.kdist, covered[nB:])
	return read
}

// evalState is what an evaluation writes of a query, in comparable form.
func evalState(q *gmaQuery) string {
	return fmt.Sprintf("result %v kdist %v reach A %v B %v ext A %d B %d iv own %v A %v B %v",
		q.result, q.kdist, q.reachA, q.reachB, q.extA, q.extB, q.ivOwn, q.ivA, q.ivB)
}

// TestEvaluationMatchesReference holds the merging evaluation to the
// per-candidate one at every tick of a stream, for every grouped query of
// GMA, GMA-naive and the mixed engine at 1 and 4 workers: the evaluated
// state (result, kNN_dist, reach, extents and intervals) must be the same
// bits and the entries read the same count, and afterwards the worker's
// store must hold at most k keys, its table exactly their objects, and
// neither it nor the spare arrays more room than the largest k evaluated
// with them. The
// stream churns objects, queries and roads; object ids share their low 16
// bits; a quarter of the objects sit at a node, so distances tie across
// objects, edges and node sets; and k is 1, 10, 50 or 200 with more than
// 200 objects, so merges run up to and stop at k.
func TestEvaluationMatchesReference(t *testing.T) {
	for _, kind := range groupedEngines {
		t.Run(kind.name, func(t *testing.T) {
			w := newLockstepWorldOf(t, 5151, 160, 320, 30, 200, atWorkers([]engineKind{kind}, 1, 4), func(w *lockstepWorld) {
				w.idStride, w.atNode, w.ks = 65536, 0.25, []int{1, 10, 50, 200}
			})
			w.churn, w.topoChurn = true, true
			var ref candStore
			evaluated := 0
			check := func(label string) {
				for _, e := range w.engines {
					g := incrementalOf(e).grp
					if g == nil {
						continue
					}
					sc := newScratch(g.net.G.NumNodes())
					maxK := 0
					for q := range g.queries {
						maxK = max(maxK, q.k)
						got, want := *q, *q
						got.result, want.result = nil, nil
						before := sc.stats.EvalEntries
						g.evaluate(&got, sc)
						read := g.evaluateRef(&want, &ref)
						if a, b := evalState(&got), evalState(&want); a != b || sc.stats.EvalEntries-before != read {
							t.Fatalf("%s: %s query %d (k=%d): evaluation read %d entries:\n %s\nreference read %d:\n %s",
								label, e.Name(), q.id, q.k, sc.stats.EvalEntries-before, a, read, b)
						}
						if err := compareResults(q.result, got.result); err != nil {
							t.Fatalf("%s: %s query %d: held result differs from a fresh evaluation: %v", label, e.Name(), q.id, err)
						}
						c := &sc.cand
						if len(c.nb) > q.k || c.dist.Len() != len(c.nb) {
							t.Fatalf("%s: %s query %d (k=%d): store holds %d keys, table %d", label, e.Name(), q.id, q.k, len(c.nb), c.dist.Len())
						}
						if max(cap(c.nb), cap(c.edges), cap(sc.spare.nb), cap(sc.spare.edges)) > maxK {
							t.Fatalf("%s: %s query %d: store capacity %d/%d, spare %d/%d, past the largest k evaluated, %d",
								label, e.Name(), q.id, cap(c.nb), cap(c.edges), cap(sc.spare.nb), cap(sc.spare.edges), maxK)
						}
						for i, key := range c.nb {
							if cd, ok := c.lookup(key.Obj); !ok || cd != distCode(key.Dist) {
								t.Fatalf("%s: %s query %d: key %d (%v) has code %#x, %v in the table", label, e.Name(), q.id, i, key, cd, ok)
							}
						}
						evaluated++
					}
				}
			}
			check("initial")
			for ts := 1; ts <= 40; ts++ {
				w.step(ts, 0.25, 0.3, 0.02)
				check(w.label(ts))
			}
			if evaluated < 1000 {
				t.Fatalf("only %d evaluations checked", evaluated)
			}
		})
	}
}
