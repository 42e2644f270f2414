package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// This file holds what happens to an update once monitorSet.route
// (monitorset.go) has routed it to a monitor as a monOp: an edge change, an
// in-tree move, or one edge's run of object reports. There is one
// interpreter, apply, with one classifier for the runs, classify, and two
// delivery policies, chosen per step:
//
//   - unsharded (Workers == 1, or a single monitor): deliver applies the op
//     on the spot. Nothing is materialised: a run that does not concern the
//     monitor — most (report, monitor) offers fail the predicate — leaves no
//     trace, and one that does creates the monitor's work entry.
//   - sharded: deliver queues the op on the monitor's work entry; finish sorts
//     the entries by monitor id and each is replayed through apply on the
//     worker pool. Monitors only read shared state (frozen once routing is
//     over: a run op points into the step's sorted run buffer) and write
//     their own; the one shared structure they would write — the influence
//     table — is redirected into a per-entry buffer, applied in ascending
//     monitor order when the workers are done.
//
// Either way finish finalizes the entries through runShard. Replaying a
// monitor's ops in routing order reproduces the exact call sequence applying
// them on the spot makes on that monitor (edge decreases, then increases,
// then re-snap runs, then in-tree moves, then object runs), and the
// classification reads only the monitor's own state plus frozen shared
// state, so the two policies produce identical results.

// Options configures engine construction.
type Options struct {
	// Workers is the number of goroutines used for the per-shard phases of
	// Step. 0 means runtime.GOMAXPROCS(0); 1 applies each op where it is
	// routed. Workers > 1 engines own a persistent worker pool (started
	// lazily, released by Close or when the engine is garbage collected).
	Workers int
	// Serving enables the epoch-versioned snapshot read path: after every
	// Step, Register and Unregister the engine publishes an immutable
	// Snapshot of all query results via an atomic pointer flip, and Result
	// serves from the latest snapshot — lock-free reads that are safe from
	// any goroutine concurrently with Step and never block it. Off by
	// default: without serving, reads must happen between Step calls (the
	// original contract) and publication costs nothing.
	Serving bool
	// Deltas additionally attaches to every published Snapshot a Delta
	// describing how it differs from its predecessor (which queries'
	// results changed, and how — see Snapshot.Delta), the
	// churn-proportional input of the serving layer's delta streaming.
	// Implies Serving. Off by default: emission allocates the per-epoch
	// change sets, a cost proportional to result churn that pure
	// snapshot readers need not pay.
	Deltas bool
	// Planner tunes the adaptive AUTO engine (internal/planner), which
	// decides per spatial query group whether its queries are monitored
	// directly or grouped, whichever the cost model predicts is cheaper.
	// Ignored by the static engines.
	Planner PlannerOptions
}

// PlannerOptions are the adaptive planner's knobs. The zero value selects
// the defaults; all inputs to the planner's decisions are deterministic
// counts of the replayed update stream (never wall-clock), so two planners
// fed the same stream and knobs make identical migration decisions.
type PlannerOptions struct {
	// PlanEvery is the re-planning cadence in ticks: after every
	// PlanEvery-th Step the planner re-evaluates the per-group cost model
	// and migrates groups whose predicted-cheaper mode changed. 0 means the
	// default (8).
	PlanEvery int
}

// workers resolves the configured worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// The shard stages run on a persistent pool.Pool owned by the engine
// (PR 1's runShards spawned goroutines per step): worker w of the pool is
// permanently bound to scratch arena w, the calling goroutine participates
// as worker 0, and the shard callbacks are method values bound once at
// construction — a steady-state parallel Step performs no goroutine spawn
// and no closure allocation.

// ilOp is a deferred influence-table mutation emitted by a monitor running
// on a shard (the owning monitor is implied by the shard).
type ilOp struct {
	add  bool
	edge graph.EdgeID
}

// opKind discriminates the per-monitor ops produced by routing.
type opKind uint8

const (
	// opEdgeDec is monitor.onEdgeDecrease for the step's n-th aggregated edge
	// change.
	opEdgeDec opKind = iota
	// opEdgeInc is monitor.onEdgeIncrease likewise.
	opEdgeInc
	// opMove is monitor.onMove to the step's n-th pending move (in-tree moves
	// only; out-of-tree moves are resolved during routing by flagging
	// needRecompute).
	opMove
	// opResnaps classifies edge n's run of topology re-snaps
	// (monitorSet.topoMoves), arrivals only.
	opResnaps
	// opObjects classifies edge n's run of object reports (monitorSet.objs):
	// the reports that left the edge and those that arrived on it.
	opObjects
)

// span is the range [lo, hi) of the step's run buffer, monitorSet.offers.
type span struct{ lo, hi int32 }

// monOp is one routed op for one monitor: 24 bytes, pointing into the step's
// frozen buffers (change list, pending moves, sorted runs) instead of
// carrying weights or positions.
type monOp struct {
	kind opKind
	n    int32 // edge ops: index into changeBuf; opMove: into pendingMoves; runs: the edge
	// dep and arr are a run's departures and arrivals: indices into its
	// source batch, in batch order.
	dep, arr span
}

// monWork is one monitor's share of the running step: what routing left for
// it and what its finalize produced. The objects classified into the monitor
// are not here but on the monitor (touched), next to the stamp that finds the
// entry: the unsharded hot path then never comes back to an entry it created.
type monWork struct {
	m *monitor
	// ops are the queued ops of a sharded step; an unsharded one queues none.
	ops []monOp
	// ilOps and changed are outputs, written only by the worker processing
	// this entry.
	ilOps []ilOp
	// affected means the monitor must finalize. An unsharded step only
	// creates entries for such monitors; a sharded one finds out at replay.
	affected bool
	changed  bool
}

// work returns the (possibly new) entry for m in the running step's work
// list, which the monitor finds through its own stamp and slot. The pointer
// is only valid until the next work call.
func (s *monitorSet) work(m *monitor) *monWork {
	if m.stamp == s.epoch {
		return &s.works[m.slot]
	}
	m.stamp, m.slot = s.epoch, int32(len(s.works))
	if len(s.works) < cap(s.works) {
		// Reuse the retained entry's slice capacity.
		s.works = s.works[:len(s.works)+1]
		w := &s.works[len(s.works)-1]
		*w = monWork{m: m, ops: w.ops[:0], ilOps: w.ilOps[:0], affected: !s.sharded}
		return w
	}
	s.works = append(s.works, monWork{m: m, affected: !s.sharded})
	return &s.works[len(s.works)-1]
}

// deliver hands a routed op to each of ms: queued for the shard stage, or
// applied at once. Unsharded, a run is classified before the work entry is
// created, so a run the monitor declines costs no entry. This loop is the
// step's hot path — one iteration per (edge change or report run,
// influenced monitor) pair.
func (s *monitorSet) deliver(ms []*monitor, op monOp) {
	if s.sharded {
		for _, m := range ms {
			w := s.work(m)
			w.ops = append(w.ops, op)
		}
		return
	}
	for _, m := range ms {
		if s.apply(m, op, 0) {
			s.work(m)
		}
	}
}

// apply interprets one routed op on m, on worker wk, and reports whether it
// concerns m, which must then finalize: an edge or move op always does (its
// handler has run), a run when classify records one of its reports.
func (s *monitorSet) apply(m *monitor, op monOp, wk int) bool {
	switch op.kind {
	case opEdgeDec:
		ec := &s.changeBuf[op.n]
		m.onEdgeDecrease(ec.eid, ec.oldW, ec.newW, s.arena(wk))
	case opEdgeInc:
		m.onEdgeIncrease(s.changeBuf[op.n].eid, s.arena(wk))
	case opMove:
		m.onMove(s.pendingMoves[op.n].pos, s.arena(wk))
	case opResnaps:
		return s.classify(m, op, s.topoMoves)
	case opObjects:
		return s.classify(m, op, s.objs)
	}
	return true
}

// classify offers m edge op.n's run of reports from src — the one place the
// classification predicates are evaluated — and records as touched each
// report that concerns m: a departure when m holds the object, an arrival
// when its new position lies within cover. The departures are probed in one
// burst; an arrival's distance is arithmetic on the edge's endpoint
// distances, read once per run (the float operations of distanceTo, so the
// outcome is the same bit for bit). A touched entry keeps the distance at
// the object's new position, for finalize to use as is. It reports whether
// any report was recorded.
func (s *monitorSet) classify(m *monitor, op monOp, src []ObjectUpdate) bool {
	n := len(m.touched)
	for _, i := range s.offers[op.dep.lo:op.dep.hi] {
		ou := &src[i]
		if !m.cand.contains(ou.ID) {
			continue
		}
		e, d := goneEdge, math.Inf(1)
		if !ou.Delete && !s.late {
			e, d = ou.New.Edge, m.distanceTo(ou.New)
		}
		m.touched = append(m.touched, s.touchAt(ou.ID, e, d))
	}
	if arr := s.offers[op.arr.lo:op.arr.hi]; len(arr) > 0 {
		e := s.net.G.Edge(graph.EdgeID(op.n))
		dU, dV := m.ends(e)
		own, cover := e.ID == m.pos.Edge, m.cand.cover
		for _, i := range arr {
			ou := &src[i]
			d := throughEnds(e, dU, dV, ou.New.Frac)
			if own {
				if direct := roadnet.ArcCost(e, ou.New.Frac, m.pos.Frac); direct < d {
					d = direct
				}
			}
			if d <= cover {
				m.touched = append(m.touched, s.touchAt(ou.ID, e.ID, d))
			}
		}
	}
	return len(m.touched) > n
}

// finish restores every monitor the step reached (Fig. 10 lines 20-26) and
// returns the change-tracking ones whose result changed. A sharded step runs
// the entries in ascending monitor id, so that worker scheduling and the
// merge of the deferred influence-table writes are deterministic (the
// monitors' slots are void from the sort on); an unsharded one runs them in
// first-touch order on the caller, writing the table directly.
func (s *monitorSet) finish() []*monitor {
	if s.sharded {
		slices.SortFunc(s.works, func(a, b monWork) int { return cmp.Compare(a.m.order(), b.m.order()) })
		for w := 0; w < min(s.workers, len(s.works)); w++ {
			s.arena(w) // pre-create outside the workers (arenas is not locked)
		}
	}
	s.pool.Run(len(s.works), s.shardFn)

	changed := s.changed[:0]
	for i := range s.works {
		w := &s.works[i]
		for _, op := range w.ilOps {
			if op.add {
				s.il.add(op.edge, w.m)
			} else {
				s.il.remove(op.edge, w.m)
			}
		}
		if w.changed {
			changed = append(changed, w.m)
		}
	}
	s.changed = changed
	return changed
}

// runShard processes entry i of the current step on pool worker wk: replay
// the monitor's queued ops, then finalize — with influence-table writes
// deferred into the entry's buffer when other workers run beside this one.
// Worker wk owns arena wk for the whole stage, so the monitors it processes
// sequentially reuse one set of expansion buffers. It is bound once as
// s.shardFn (a stored method value) so the per-step pool dispatch allocates
// nothing.
func (s *monitorSet) runShard(wk, i int) {
	w := &s.works[i]
	m := w.m
	for _, op := range w.ops {
		if s.apply(m, op, wk) {
			w.affected = true
		}
	}
	if !w.affected {
		return
	}
	if s.sharded {
		m.ilDefer = &w.ilOps
	}
	sc := s.arena(wk)
	if m.track {
		m.cand.prev = &sc.prev // the change report's copy, in the worker's arena
	}
	w.changed = m.finalize(m.touched, sc) && m.track
	m.touched = m.touched[:0]
	m.ilDefer, m.cand.prev = nil, nil
}
