package core

import (
	"cmp"
	"runtime"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// This file implements the parallel sharded Step pipeline of the monitor
// set. One timestamp is processed in three stages:
//
//  1. route (serial): shared network state is mutated exactly as in serial
//     execution (edge weights, object registry) while every update is routed
//     — via the influence lists — to the monitors it can affect, producing
//     one ordered op list per monitor;
//  2. shard (parallel): each affected monitor replays its op list and runs
//     finalize on a bounded worker pool. Monitors only read shared state
//     (which is frozen after routing) and write their own; the one shared
//     structure they would write — the influence table — is redirected into
//     a per-shard buffer;
//  3. merge (serial): the per-shard influence-table buffers are applied in
//     ascending monitor order and the per-shard change flags are collected.
//
// Replaying a monitor's ops in routing order reproduces the exact call
// sequence serial execution would have made on that monitor (edge decreases,
// then increases, then in-tree moves, then object classifications), and the
// classification predicates (candStore.contains, monitor.covers) read
// only the monitor's own state plus frozen shared state, so the parallel
// pipeline produces results identical to serial execution.

// Options configures engine construction.
type Options struct {
	// Workers is the number of goroutines used for the per-shard phases of
	// Step. 0 means runtime.GOMAXPROCS(0); 1 selects the serial pipeline.
	// Workers > 1 engines own a persistent worker pool (started lazily,
	// released by Close or when the engine is garbage collected).
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
	// opEdgeDec replays monitor.onEdgeDecrease for the step's n-th
	// aggregated edge change.
	opEdgeDec opKind = iota
	// opEdgeInc replays monitor.onEdgeIncrease likewise.
	opEdgeInc
	// opMove replays monitor.onMove(pos) (in-tree moves only; out-of-tree
	// moves are resolved during routing by flagging needRecompute).
	opMove
	// opOutgoing classifies object n, which left its position and is now at
	// pos, against the monitor's candidates (markOutgoing deferred to the
	// shard).
	opOutgoing
	// opIncoming classifies object n appearing at pos against the monitor's
	// covered radius (markIncoming deferred to the shard).
	opIncoming
)

// monOp is one routed update for one monitor: 24 bytes, the edge ops
// pointing into the step's shared change list instead of carrying weights.
type monOp struct {
	kind opKind
	n    int32 // object ops: the object id; edge ops: index into changeBuf
	pos  roadnet.Position
}

// monWork is one shard: a monitor's routed ops plus its per-shard outputs.
type monWork struct {
	m   *monitor
	ops []monOp
	// pre marks monitors affected during routing itself (query moves),
	// which must finalize even with an empty op list.
	pre bool

	// shard outputs, written only by the worker processing this entry
	touched []touch
	ilOps   []ilOp
	changed bool
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
		*w = monWork{m: m, ops: w.ops[:0], touched: w.touched[:0], ilOps: w.ilOps[:0]}
		return w
	}
	s.works = append(s.works, monWork{m: m})
	return &s.works[len(s.works)-1]
}

// stepParallel is the parallel counterpart of monitorSet.stepSerial: same
// update semantics, per-monitor work fanned out over the worker pool.
func (s *monitorSet) stepParallel(objs []ObjectUpdate, edges []EdgeUpdate, moves []queryMove) []*monitor {
	s.works = s.works[:0]

	// The monitors flagged by this timestamp's topology edits (applied
	// serially before the step — they restructure the CSR the shards
	// traverse) recompute from scratch in their shards; the re-snapped
	// objects route as incomers after the edge phase, mirroring stepSerial.
	for _, q := range s.topoMarks {
		if m, ok := s.mons[q]; ok {
			s.work(m).pre = true
		}
	}

	// Route stage. Order mirrors stepSerial exactly.
	//
	// Fig. 10 lines 1-3: out-of-tree query moves are resolved here — the
	// region test must see pre-update weights and trees — while in-tree
	// moves are held back until after the edge ops, as in serial execution.
	pendingMoves := s.pendingMoves[:0]
	for _, mv := range moves {
		m, ok := s.mons[mv.id]
		if !ok {
			continue
		}
		s.work(m).pre = true
		if !m.inRegion(mv.pos) {
			m.pos = mv.pos
			m.needRecompute = true
			continue
		}
		pendingMoves = append(pendingMoves, mv)
	}
	s.pendingMoves = pendingMoves

	// Lines 4-13: edge updates. Weights are applied to the shared graph now;
	// the tree-pruning handlers are queued (they never read edge weights —
	// the changed weight is looked up in the change list, frozen from here).
	for i, ec := range s.classifyEdgeUpdates(edges) {
		s.net.G.SetWeight(ec.eid, ec.newW)
		kind := opEdgeInc
		if ec.decrease {
			kind = opEdgeDec
		}
		s.forInfluenced(ec.eid, func(m *monitor) {
			w := s.work(m)
			w.ops = append(w.ops, monOp{kind: kind, n: int32(i)})
		})
	}

	// Topology re-snaps route as incomers at their new positions, after the
	// edge ops (their shard replay therefore sees the timestamp's weights,
	// exactly like stepSerial's immediate evaluation at this point).
	for _, mv := range s.topoMoves {
		s.routeIncoming(mv.ID, mv.New)
	}

	// Lines 14-15: in-tree query moves, queued after the edge ops.
	for _, mv := range pendingMoves {
		w := s.work(s.mons[mv.id])
		w.ops = append(w.ops, monOp{kind: opMove, pos: mv.pos})
	}

	// Lines 16-19: object updates. The registry is mutated now; the
	// per-monitor classification predicates (contains / covers) read only
	// monitor state and are deferred to the shard, where they run with the
	// same per-monitor state as in serial execution.
	s.applyObjects(objs, s.routeOutgoing, s.routeIncoming)

	// Shard stage: replay each monitor's ops and finalize (lines 20-26).
	// Worker wk owns arena wk for the whole stage, so the monitors it
	// processes sequentially reuse one set of expansion buffers.
	// Shards run in ascending monitor id, so that worker scheduling and the
	// merge are deterministic; the monitors' slots are void from here.
	slices.SortFunc(s.works, func(a, b monWork) int { return cmp.Compare(a.m.id, b.m.id) })
	for w := 0; w < min(s.workers, len(s.works)); w++ {
		s.arena(w) // pre-create outside the workers (arenas is not locked)
	}
	s.pool.Run(len(s.works), s.shardFn)

	// Merge stage: apply influence-table mutations in ascending monitor
	// order and collect the change flags.
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

// runShard processes one shard of the current step on pool worker wk:
// replay the monitor's routed ops, then finalize with influence-table
// writes deferred into the shard buffer. It is bound once as s.shardFn
// (a stored method value) so the per-step pool dispatch allocates nothing.
func (s *monitorSet) runShard(wk, i int) {
	sc := s.arena(wk)
	w := &s.works[i]
	m := w.m
	affected := w.pre
	for _, op := range w.ops {
		switch op.kind {
		case opEdgeDec:
			affected = true
			ec := &s.changeBuf[op.n]
			m.onEdgeDecrease(ec.eid, ec.oldW, ec.newW, sc)
		case opEdgeInc:
			affected = true
			m.onEdgeIncrease(s.changeBuf[op.n].eid, sc)
		case opMove:
			m.onMove(op.pos, sc)
		case opOutgoing:
			if id := roadnet.ObjectID(op.n); m.cand.contains(id) {
				affected = true
				w.touched = append(w.touched, s.touchAt(id, op.pos))
			}
		case opIncoming:
			if id := roadnet.ObjectID(op.n); m.covers(op.pos) {
				affected = true
				w.touched = append(w.touched, s.touchAt(id, op.pos))
			}
		}
	}
	if !affected {
		return
	}
	m.ilDefer = &w.ilOps
	w.changed = m.finalize(w.touched, sc) && m.track
	m.ilDefer = nil
}

func (s *monitorSet) routeOutgoing(id roadnet.ObjectID, old, now roadnet.Position) {
	s.forInfluenced(old.Edge, func(m *monitor) {
		w := s.work(m)
		w.ops = append(w.ops, monOp{kind: opOutgoing, n: int32(id), pos: now})
	})
}

func (s *monitorSet) routeIncoming(id roadnet.ObjectID, pos roadnet.Position) {
	s.forInfluenced(pos.Edge, func(m *monitor) {
		w := s.work(m)
		w.ops = append(w.ops, monOp{kind: opIncoming, n: int32(id), pos: pos})
	})
}
