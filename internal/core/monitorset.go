package core

import (
	"cmp"
	"runtime"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/pool"
	"roadknn/internal/roadnet"
)

// monitorSet runs the complete IMA pipeline of Fig. 10 over a collection of
// monitored points: the user queries placed in Direct mode and the active
// nodes (whose positions never move) behind the Grouped ones, all in one
// list, routed through one influence table in one pass per timestamp.
type monitorSet struct {
	net *roadnet.Network
	il  *ilTable
	// list holds every registered monitor, in no order a result depends on
	// (each knows its place, monitor.at). Nothing is looked up in it: a direct
	// monitor is found through its query's row in qt, the owning engine's
	// query table, a node monitor through the grouped layer's nodeMon.
	list []*monitor
	qt   *queryTable
	// unfiltered disables influence-list lookups: every update is offered
	// to every monitor (the IMA-NF ablation).
	unfiltered bool
	// workers is the size of the worker pool. Engines set it (with the pool
	// and shardFn) via configure; the zero value never shards.
	workers int
	// pool is the persistent worker pool of the shard stage, shared by every
	// parallel stage of the owning engine (the grouped queries' evaluations
	// run on it too — the stages never overlap).
	pool *pool.Pool
	// shardFn is s.runShard bound once, so pool dispatch never allocates.
	shardFn func(worker, i int)
	// sharded is the running step's delivery policy (parallel.go): queue the
	// routed ops per monitor for the pool, or apply each where it is routed.
	sharded bool
	// works is the running step's work list, one entry per monitor reached,
	// in first-touch order; reused across steps to amortize allocations.
	works []monWork
	// arenas holds the per-worker scratch arenas: arena 0 serves everything
	// that runs on the caller, arenas 1..workers-1 the extra shard workers.
	arenas arenaPool

	// epoch numbers the steps: a monitor whose stamp equals it has an entry
	// in the running step's works, at its slot. late makes the running step's
	// touched entries defer to the object registry (see lateEdge); seen is
	// what finds that out. A stream with one report per object and timestamp
	// (the paper's model) and no edge removals never sets it.
	epoch uint64
	late  bool
	seen  idSet

	// Per-step buffers, reused across steps so a steady-state timestamp
	// allocates nothing.
	changed      []*monitor
	pendingMoves []queryMove
	// agg aggregates the step's edge reports per edge: agg[e].w is edge e's
	// last reported weight while agg[e].epoch is the running step's.
	agg       []edgeAgg
	aggOrder  []graph.EdgeID
	decBuf    []edgeChange
	incBuf    []edgeChange
	changeBuf []edgeChange

	// topoMoves / topoMarks carry a topology phase's object re-snaps and
	// flagged queries from applyTopology to the step that follows it, which
	// resolves the marks through qt (a marked query can be terminated in
	// between); both are reused across steps.
	topoMoves []roadnet.ObjectMove
	topoMarks []QueryID

	// free recycles unregistered monitors, trees/candidate sets and all:
	// the active-node layer churns registrations on every grouped query
	// move, and a pooled monitor re-expands without a single allocation.
	// trimFree bounds it, at every tick's close, by the tick's churn (regs,
	// the registrations since the last trim): what a mode flip releases
	// beyond that is left to the collector.
	free []*monitor
	regs int
}

func newMonitorSet(net *roadnet.Network, qt *queryTable) *monitorSet {
	return &monitorSet{
		net: net,
		il:  newILTable(net.G.NumEdges()),
		qt:  qt,
	}
}

// configure sizes the worker pool from the engine options and binds the
// shard callback. The persistent pool starts no goroutines until the
// first sharded step; it is released by the engine's Close or, as a
// backstop, by a GC cleanup when the owning set becomes unreachable (the
// pool never retains a reference back into the set between runs).
func (s *monitorSet) configure(o Options) {
	s.workers = o.workers()
	s.pool = pool.New(s.workers)
	s.shardFn = s.runShard
	runtime.AddCleanup(s, func(p *pool.Pool) { p.Close() }, s.pool)
}

// arena returns the scratch arena for worker i (0 = the caller).
func (s *monitorSet) arena(i int) *scratch {
	return s.arenas.get(i, s.net.G.NumNodes())
}

// register installs a monitor and computes its initial result. id is the
// QueryID of a direct monitor or the NodeID of a node monitor (see
// monitor.order). track enables result-change reporting from step for this
// monitor: node monitors need it to wake their dependent grouped queries,
// direct monitors leave it off so no result is copied per timestamp.
func (s *monitorSet) register(id int32, pos roadnet.Position, k int, track bool) *monitor {
	s.regs++
	var m *monitor
	if n := len(s.free); n > 0 {
		m = s.free[n-1]
		s.free[n-1] = nil // trimFree only clears what is left in the pool
		s.free = s.free[:n-1]
		m.reset(id, pos, k)
	} else {
		m = newMonitor(s.net, s.il, id, pos, k)
	}
	m.track, m.at = track, int32(len(s.list))
	s.list = append(s.list, m)
	m.computeInitial(s.arena(0))
	return m
}

// trimFree closes a tick on the pool: it keeps at most as many monitors as
// were registered since the last trim, and drops the rest.
func (s *monitorSet) trimFree() {
	if len(s.free) > s.regs {
		clear(s.free[s.regs:])
		s.free = s.free[:s.regs]
	}
	s.regs = 0
}

// rebuildAll discards every monitor's incremental state — expansion
// trees, cached distances, influence lists — and recomputes it from
// scratch at the current positions and weights, exactly as a fresh
// registration would. Path costs are exact, so the published rows do not
// change; what it measures is the cost of a from-scratch pass (Rebuilder).
// The monitors are recomputed — and left listed — in monitor.order.
func (s *monitorSet) rebuildAll() {
	slices.SortFunc(s.list, func(a, b *monitor) int { return cmp.Compare(a.order(), b.order()) })
	sc := s.arena(0)
	for i, m := range s.list {
		m.clearIL()
		m.reset(m.id, m.pos, m.k)
		m.at = int32(i)
		m.computeInitial(sc)
	}
}

// unregister drops m, moving the list's last monitor into its place.
func (s *monitorSet) unregister(m *monitor) {
	m.clearIL()
	last := len(s.list) - 1
	s.list[m.at] = s.list[last]
	s.list[m.at].at = m.at
	s.list[last] = nil
	s.list = s.list[:last]
	s.free = append(s.free, m)
}

// queryMove is a pending relocation of a direct query within a step.
type queryMove struct {
	m   *monitor
	pos roadnet.Position
}

// applyTopology applies one timestamp's edge edits to the shared network
// and flags every monitor whose result can depend on them for a
// from-scratch recomputation. It always runs serially, before any routing
// or sharding: edits restructure the CSR adjacency, which every later
// phase reads. The flagged monitors and the re-snapped objects are left in
// topoMarks / topoMoves for the step that follows: the marks enter its work
// list, the re-snaps classify as incoming object moves.
// The grouped layer deactivates its node monitors before calling this and
// re-attaches after, so only direct monitors are ever marked here.
//
// Routing is influence-list-based, like every other update kind. A removal
// can only change results whose influence region touches the removed edge —
// exactly its influence list. An insertion (U, V) can only change a result
// if a path through the new edge enters the query's region, which requires
// network distance to U or V below kNN_dist; any such query has influence
// registrations on the existing edges incident to that endpoint, so the
// union of those lists covers all candidates.
func (s *monitorSet) applyTopology(topo []TopologyUpdate) {
	g := s.net.G
	recompute := func(m *monitor) {
		m.needRecompute = true
		s.topoMarks = append(s.topoMarks, QueryID(m.id))
	}
	recomputeOn := func(e graph.EdgeID) {
		for _, m := range s.influenced(e) {
			recompute(m)
		}
	}
	for i := range topo {
		// Earlier ops in this batch may have appended edge ids; the incident
		// lists read below can already contain them.
		s.il.grow(g.NumEdges())
		switch topo[i].Op {
		case TopoRemove:
			// Mark while the edge's influence list is still populated.
			recomputeOn(topo[i].Edge)
		case TopoAdd:
			// Mark through the pre-insertion incident lists of the new
			// endpoints (ForEachIncident reads through the pending overlay
			// without forcing a merge mid-batch).
			g.ForEachIncident(topo[i].U, recomputeOn)
			g.ForEachIncident(topo[i].V, recomputeOn)
		}
		s.topoMoves = applyTopologyOps(s.net, topo[i:i+1], s.topoMoves)
	}
	s.il.grow(g.NumEdges())
	// Merge the patches now, in the serial phase, so the parallel shards —
	// and every later traversal — see a clean frozen CSR.
	g.Freeze()
	// Queries sitting on a removed edge re-snap onto the nearest live
	// position, by the same deterministic rule as the edge's resident
	// objects, and recompute from there.
	for _, m := range s.list {
		if !g.EdgeAlive(m.pos.Edge) {
			m.pos = resnap(s.net, m.pos)
			recompute(m)
		}
	}
}

// resnap moves a query position off a removed edge (the objects' rule).
func resnap(net *roadnet.Network, pos roadnet.Position) roadnet.Position {
	np, ok := net.Resnap(pos)
	if !ok {
		panic("core: no live edge to re-snap a query onto")
	}
	return np
}

// step processes one timestamp of object updates, edge updates and query
// moves: route walks it in the order §4.5 mandates and finish restores every
// monitor an update reached. Topology comes first and is applied by
// applyTopology before the call. step returns the change-tracking monitors
// whose results changed; the returned slice is reused by the next step call.
//
// Routing is the same whatever the worker count. With workers > 1 (and more
// than one monitor) the routed ops are queued per monitor and replayed on the
// worker pool; otherwise each is applied where it is routed. Every monitor
// sees the same calls in the same order either way.
func (s *monitorSet) step(objs []ObjectUpdate, edges []EdgeUpdate, moves []queryMove) []*monitor {
	s.epoch++
	// A position travels with its touched entry only if it is the object's
	// last this timestamp.
	s.late = len(s.topoMoves) > 0 || s.seen.repeats(objs)
	s.sharded = s.workers > 1 && len(s.list) > 1
	s.works = s.works[:0]

	s.route(objs, edges, moves)
	changed := s.finish()
	s.topoMarks, s.topoMoves = s.topoMarks[:0], s.topoMoves[:0]
	// The reused buffers must not keep a monitor the next tick releases
	// reachable.
	for i := range s.works {
		s.works[i].m = nil
	}
	// Entries past this step's count drop the op lists an earlier, larger
	// step left them: only as many entries as this step used keep theirs.
	clear(s.works[len(s.works):cap(s.works)])
	clear(s.pendingMoves)
	return changed
}

// route is §4.5's processing order (Fig. 10), written once: shared network
// state (edge weights, the object registry) is mutated here, serially, while
// every update is offered — through the influence lists — to the monitors it
// can concern. Out-of-tree query moves come first (full recomputation, all
// other updates for them ignored), then edge weight decreases, then
// increases, then in-tree moves, then object updates; finish closes with the
// per-monitor finalize.
func (s *monitorSet) route(objs []ObjectUpdate, edges []EdgeUpdate, moves []queryMove) {
	// Monitors flagged by this timestamp's topology edits recompute from
	// scratch. The re-snapped objects need no outgoing offers — every query
	// that could hold an object of a removed edge is in that edge's influence
	// list and among the flagged — and arrive after the edge phase, below.
	for _, id := range s.topoMarks {
		if r := s.qt.find(id); r != nil && r.mon != nil {
			s.work(r.mon).affected = true
		}
	}

	// Fig. 10 lines 1-3: queries moving outside their expansion tree are
	// recomputed from scratch. They are resolved here — the region test must
	// see pre-update weights and trees — and flagged before any pruning, so
	// the later phases skip work on their (discarded) trees.
	pendingMoves := s.pendingMoves[:0]
	for _, mv := range moves {
		s.work(mv.m).affected = true
		if !mv.m.inRegion(mv.pos) {
			mv.m.pos = mv.pos
			mv.m.needRecompute = true
			continue
		}
		pendingMoves = append(pendingMoves, mv)
	}
	s.pendingMoves = pendingMoves

	// Lines 4-13: edge updates, decreases strictly before increases. The
	// weight is applied to the shared graph now; the tree-pruning handlers
	// never read it — they look the change up in the change list, which is
	// frozen from here.
	for i, ec := range s.classifyEdgeUpdates(edges) {
		s.net.G.SetWeight(ec.eid, ec.newW)
		kind := opEdgeInc
		if ec.decrease {
			kind = opEdgeDec
		}
		s.offer(ec.eid, monOp{kind: kind, n: int32(i)})
	}

	// Topology re-snaps arrive at their new positions with the timestamp's
	// weights already applied.
	for _, mv := range s.topoMoves {
		s.offer(mv.New.Edge, monOp{kind: opIncoming, n: int32(mv.ID), pos: mv.New})
	}

	// Lines 14-15: in-tree query moves, re-rooting the valid subtree (onMove
	// repeats the region test: edge pruning may have invalidated the part of
	// the tree containing the new location).
	for _, mv := range pendingMoves {
		m := [1]*monitor{mv.m}
		s.deliver(m[:], monOp{kind: opMove, pos: mv.pos})
	}

	// Lines 16-19: object updates. This is the one place the incremental
	// engines mutate the object registry; each update's departure (with where
	// the object is now) and arrival are classified per influenced monitor as
	// outgoing, incoming or moving (§4.2) from monitor state alone.
	for _, ou := range objs {
		switch {
		case ou.Insert:
			s.net.AddObject(ou.ID, ou.New)
			s.offer(ou.New.Edge, monOp{kind: opIncoming, n: int32(ou.ID), pos: ou.New})
		case ou.Delete:
			if old, ok := s.net.RemoveObject(ou.ID); ok {
				s.offer(old.Edge, monOp{kind: opOutgoing, n: int32(ou.ID), pos: roadnet.Position{Edge: goneEdge}})
			}
		default:
			old := s.net.MoveObject(ou.ID, ou.New)
			s.offer(old.Edge, monOp{kind: opOutgoing, n: int32(ou.ID), pos: ou.New})
			s.offer(ou.New.Edge, monOp{kind: opIncoming, n: int32(ou.ID), pos: ou.New})
		}
	}
}

// offer delivers op to the monitors to consider for an update on edge e.
func (s *monitorSet) offer(e graph.EdgeID, op monOp) { s.deliver(s.influenced(e), op) }

// touchAt is the touched entry of object id seen at pos (goneEdge for a
// deleted one) by the running step.
func (s *monitorSet) touchAt(id roadnet.ObjectID, pos roadnet.Position) touch {
	if s.late {
		return touch{obj: id, edge: lateEdge}
	}
	return touch{obj: id, edge: pos.Edge, frac: pos.Frac}
}

// edgeChange is one aggregated edge-weight change of a timestamp.
type edgeChange struct {
	eid        graph.EdgeID
	oldW, newW float64
	decrease   bool
}

// edgeAgg is one edge's slot in a step's edge-report aggregation.
type edgeAgg struct {
	epoch uint64
	w     float64
}

// classifyEdgeUpdates aggregates duplicate per-edge updates (§4.5: multiple
// weight updates per edge per timestamp collapse into the overall change)
// and splits them into decreases and increases, each sorted by edge id,
// decreases first — the order route processes them in. No-op updates (new
// weight equals current) are dropped. Weights are not applied.
// The returned slice is reused by the next call.
func (s *monitorSet) classifyEdgeUpdates(edges []EdgeUpdate) []edgeChange {
	if len(edges) == 0 {
		return nil
	}
	// The aggregation array follows the edge id space, which AddEdge grows.
	if n := s.net.G.NumEdges(); len(s.agg) < n {
		s.agg = append(s.agg, make([]edgeAgg, n-len(s.agg))...)
	}
	order := s.aggOrder[:0]
	for _, eu := range edges {
		if !s.net.G.EdgeAlive(eu.Edge) {
			continue // edge removed earlier this timestamp; stale sensor report
		}
		a := &s.agg[eu.Edge]
		if a.epoch != s.epoch {
			a.epoch = s.epoch
			order = append(order, eu.Edge)
		}
		a.w = eu.NewW // last update wins: it is the final weight
	}
	s.aggOrder = order
	decs, incs := s.decBuf[:0], s.incBuf[:0]
	for _, eid := range order {
		// Compared as the graph will store it: a change below the quantum
		// is no change.
		oldW, newW := s.net.G.Edge(eid).W, graph.QuantiseWeight(s.agg[eid].w)
		switch {
		case newW < oldW:
			decs = append(decs, edgeChange{eid: eid, oldW: oldW, newW: newW, decrease: true})
		case newW > oldW:
			incs = append(incs, edgeChange{eid: eid, oldW: oldW, newW: newW})
		}
	}
	slices.SortFunc(decs, func(a, b edgeChange) int { return cmp.Compare(a.eid, b.eid) })
	slices.SortFunc(incs, func(a, b edgeChange) int { return cmp.Compare(a.eid, b.eid) })
	s.decBuf, s.incBuf = decs, incs
	s.changeBuf = append(append(s.changeBuf[:0], decs...), incs...)
	return s.changeBuf
}

// influenced returns the monitors to consider for an update on edge e: the
// edge's influence list normally, or every monitor when filtering is ablated
// away. The slice is the table's own (or the set's list): callers only read
// it, and must not touch the table or register monitors while they do.
func (s *monitorSet) influenced(e graph.EdgeID) []*monitor {
	if s.unfiltered {
		return s.list
	}
	return s.il.byEdge[e]
}

// idSet detects a timestamp that reports one object more than once: an
// open-addressing set of the batch's ids, emptied in O(1) by its epoch.
type idSet struct {
	slots []uint64 // epoch<<32 | id; any other epoch means empty
	epoch uint32
}

// repeats reports whether two of objs carry the same object id.
func (t *idSet) repeats(objs []ObjectUpdate) bool {
	if len(objs) < 2 {
		return false
	}
	// At most half full, and not left at the size of one outsized batch (a
	// population loaded in a single timestamp).
	if n := len(t.slots); n < 2*len(objs) || n > 16*len(objs) {
		n = 64
		for n < 2*len(objs) {
			n *= 2
		}
		if n != len(t.slots) {
			t.slots, t.epoch = make([]uint64, n), 0
		}
	}
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
	mask := uint32(len(t.slots) - 1)
	for i := range objs {
		key := uint64(t.epoch)<<32 | uint64(uint32(objs[i].ID))
		for j := candHash(objs[i].ID) & mask; ; j = (j + 1) & mask {
			if t.slots[j] == key {
				return true
			}
			if t.slots[j]>>32 != uint64(t.epoch) {
				t.slots[j] = key
				break
			}
		}
	}
	return false
}

func (s *monitorSet) sizeBytes() int {
	n := 0
	for _, m := range s.list {
		n += m.sizeBytes()
	}
	n += s.il.entries() * (4 + 16)
	return n
}
