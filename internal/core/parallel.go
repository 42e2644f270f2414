package core

import (
	"cmp"
	"runtime"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// This file holds what happens to an update once monitorSet.route
// (monitorset.go) has routed it to a monitor as a monOp. There is one
// interpreter, apply, and two delivery policies, chosen per step:
//
//   - unsharded (Workers == 1, or a single monitor): deliver applies the op
//     on the spot. Nothing is materialised: an op that does not concern the
//     monitor — most (object, monitor) offers fail the predicate — leaves no
//     trace, and one that does creates the monitor's work entry.
//   - sharded: deliver queues the op on the monitor's work entry; finish sorts
//     the entries by monitor id and each is replayed through apply on the
//     worker pool. Monitors only read shared state (frozen once routing is
//     over) and write their own; the one shared structure they would write —
//     the influence table — is redirected into a per-entry buffer, applied
//     in ascending monitor order when the workers are done.
//
// Either way finish finalizes the entries through runShard. Replaying a
// monitor's ops in routing order reproduces the exact call sequence applying
// them on the spot makes on that monitor (edge decreases, then increases,
// then in-tree moves, then object classifications), and the classification
// predicates (candStore.contains, monitor.covers) read only the monitor's own
// state plus frozen shared state, so the two policies produce identical
// results.

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
	// opMove is monitor.onMove(pos) (in-tree moves only; out-of-tree moves
	// are resolved during routing by flagging needRecompute).
	opMove
	// opOutgoing classifies object n, which left its position and is now at
	// pos, against the monitor's candidates: the influence list of the
	// object's previous edge bounds who is asked.
	opOutgoing
	// opIncoming classifies object n appearing at pos against the monitor's
	// covered radius.
	opIncoming
)

// monOp is one routed update for one monitor: 24 bytes, the edge ops
// pointing into the step's shared change list instead of carrying weights.
type monOp struct {
	kind opKind
	n    int32 // object ops: the object id; edge ops: index into changeBuf
	pos  roadnet.Position
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
// applied at once. Unsharded, the op is classified before the work entry is
// created, so an offer the monitor declines costs no entry. This loop is the
// step's hot path — one iteration per (update, influenced monitor) pair.
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
// handler has run), an object op when the monitor holds the object or covers
// its new position — the one place the classification predicates are
// evaluated — and is then recorded as touched.
func (s *monitorSet) apply(m *monitor, op monOp, wk int) bool {
	switch op.kind {
	case opEdgeDec:
		ec := &s.changeBuf[op.n]
		m.onEdgeDecrease(ec.eid, ec.oldW, ec.newW, s.arena(wk))
		return true
	case opEdgeInc:
		m.onEdgeIncrease(s.changeBuf[op.n].eid, s.arena(wk))
		return true
	case opMove:
		m.onMove(op.pos, s.arena(wk))
		return true
	case opOutgoing:
		if !m.cand.contains(roadnet.ObjectID(op.n)) {
			return false
		}
	case opIncoming:
		if !m.covers(op.pos) {
			return false
		}
	}
	m.touched = append(m.touched, s.touchAt(roadnet.ObjectID(op.n), op.pos))
	return true
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
	w.changed = m.finalize(m.touched, s.arena(wk)) && m.track
	m.touched = m.touched[:0]
	m.ilDefer = nil
}
