package serve

import (
	"fmt"
	"sort"

	"roadknn"
	"roadknn/internal/graph"
	"roadknn/internal/idtable"
	"roadknn/internal/wal"
)

// Batcher coalesces a stream of incoming object/query/edge events into
// per-timestamp Updates batches for the deterministic Step pipeline. It is
// the serving runtime's ingestion front-end: clients report where things
// are (or that they are gone), the Batcher tracks the last state the
// engine actually applied, and Drain emits the minimal batch that takes
// the engine from its current state to the reported one:
//
//   - several moves of one entity within a tick collapse into a single
//     update from the last-applied position to the final one;
//   - an insert followed by moves is a single insert at the final
//     position; an insert followed by a delete within one tick vanishes;
//   - an object delete followed by a re-report becomes a plain move; a
//     query end followed by a re-install becomes a terminate + install
//     pair (the new k must take effect);
//   - reporting an entity exactly where the engine already has it emits
//     nothing at all;
//   - edge weights keep only the last report per edge (§4.5 aggregation,
//     performed at ingestion instead of inside the engine).
//
// Entities appear in Drain output in first-report order within the tick,
// so identical input sequences produce byte-identical batches — feeding
// two replicas the same stream keeps them exactly consistent (the Step
// pipeline itself is deterministic).
//
// The exported mutators are the admission contract every front door loops
// over: each checks its report against the Batcher's own edge view and the
// reports before it, and returns an error, changing nothing, if the report
// could panic or corrupt the engine's Step. Deleting an unknown object or
// ending an unknown query is a no-op. Replay and checkpoint installation
// re-feed logged state through the unchecked appliers the mutators wrap.
//
// A Batcher is not safe for concurrent use; the Server serializes access.
type Batcher struct {
	// Objects live in one row table: objIdx maps an id to its row in
	// objRows, which holds both what the engine has applied and what is
	// pending this tick. An id has a row exactly while it is applied or
	// pending; a row whose object is gone is zeroed and recycled. objOrder
	// lists the pending rows in first-report order.
	objIdx   idtable.Table
	objRows  []objRow
	objOrder []int32

	// applied state: what the engine has after the last Drain'd batch.
	qryApplied map[roadknn.QueryID]appliedQry
	// edgeApplied tracks edge weights overridden from the network file
	// since startup, so checkpoints can rebuild them.
	edgeApplied map[roadknn.EdgeID]float64

	// pending state for the current tick.
	qryPend  map[roadknn.QueryID]pendingQry
	qryOrder []roadknn.QueryID
	edgePend map[roadknn.EdgeID]float64
	edgeOrd  []roadknn.EdgeID

	// Topology state. Ops are never coalesced — their order drives the
	// engine's deterministic edge-id assignment — so pending ops are a plain
	// ordered list, and topoApplied is the committed op log since startup
	// (checkpoints store it so recovery can rebuild the exact edge set).
	topoPend    []roadknn.TopologyUpdate
	topoApplied []roadknn.TopologyUpdate
	// The edge view mirrors the engine's edge-id allocator after the
	// committed and the pending ops, so insertions are assigned their id
	// (and reports checked against liveness) at admission, without a
	// handler ever touching the live graph: alive is each id's liveness and
	// its length the next fresh id, free the tombstone freelist in stack
	// order, live the number of live edges.
	alive []bool
	free  []roadknn.EdgeID
	live  int

	// undo can take back the reports since openLog, while one is open.
	undo undoLog
}

// undoLog takes back one admission's reports (see openLog). Each kind of
// report touches only its own state, so each is undone on its own. An
// entity first reported since openLog is listed in its order list past the
// mark: undoing it drops its pending entry (and the row of an object that
// is not applied either, which the admission created). Only a report that
// overwrites a pending entry logs the entry, so the log holds a request's
// re-reports, not its reports.
type undoLog struct {
	open                                 bool
	objMark, qryMark, edgeMark, topoMark int
	objs                                 []objUndo
	qrys                                 []entryUndo[roadknn.QueryID, pendingQry]
	edges                                []entryUndo[roadknn.EdgeID, float64]
	// reused holds, per insertion since the mark, whether it took its id
	// off the freelist rather than a fresh one.
	reused []bool
}

// objUndo is a pending object row's report before another overwrote it.
type objUndo struct {
	row  int32
	pend pendKind
	to   roadknn.Position
}

// entryUndo is a pending map entry before a report overwrote it.
type entryUndo[K comparable, V any] struct {
	key  K
	prev V
}

// restore undoes the reports on m since the mark: the logged entries get
// their values back, newest first, and the keys first reported since the
// mark (the order list's tail) are dropped.
func restore[K comparable, V any](m map[K]V, log []entryUndo[K, V], added []K) {
	for i := len(log) - 1; i >= 0; i-- {
		m[log[i].key] = log[i].prev
	}
	for _, k := range added {
		delete(m, k)
	}
}

// objRow is one object's applied and pending state.
type objRow struct {
	id      roadknn.ObjectID
	applied bool
	pend    pendKind
	at      roadknn.Position // applied position, when applied
	to      roadknn.Position // reported position, when pend is pendMove
}

// pendKind is what an object's row has pending this tick.
type pendKind uint8

const (
	pendNone pendKind = iota
	pendMove          // reported at objRow.to
	pendDel           // reported gone
)

type appliedQry struct {
	pos roadknn.Position
	k   int
}

type pendingQry struct {
	pos roadknn.Position
	k   int
	end bool
	// reinstall marks an end followed by a re-report within one tick: the
	// engine must terminate and re-install (the new k takes effect), not
	// just move.
	reinstall bool
}

// NewBatcher returns an empty batcher with an empty edge view: every report
// that names an edge is rejected until InitTopology seeds it.
func NewBatcher() *Batcher {
	return &Batcher{
		qryApplied:  make(map[roadknn.QueryID]appliedQry),
		edgeApplied: make(map[roadknn.EdgeID]float64),
		qryPend:     make(map[roadknn.QueryID]pendingQry),
		edgePend:    make(map[roadknn.EdgeID]float64),
	}
}

// InitTopology seeds the batcher's view of the engine's edge-id space:
// numEdges is the id-space size and free the graph's tombstone freelist in
// stack order. Called once at server construction — afterwards the batcher
// evolves the view itself as ops are admitted, so handlers never read the
// live graph.
func (b *Batcher) InitTopology(numEdges int, free []roadknn.EdgeID) {
	b.alive = make([]bool, numEdges)
	for i := range b.alive {
		b.alive[i] = true
	}
	for _, e := range free {
		b.alive[e] = false
	}
	b.free = append(b.free[:0], free...)
	b.live = numEdges - len(free)
}

// topoAlive reports whether edge e will be live once the pending topology
// ops apply — the liveness every position or weight report in the current
// tick is checked against.
func (b *Batcher) topoAlive(e roadknn.EdgeID) bool {
	return e >= 0 && int(e) < len(b.alive) && b.alive[e]
}

// checkLive returns an error unless edge e is live in the edge view.
func (b *Batcher) checkLive(e roadknn.EdgeID) error {
	switch {
	case b.topoAlive(e):
		return nil
	case e < 0 || int(e) >= len(b.alive):
		return fmt.Errorf("edge %d out of range [0,%d)", e, len(b.alive))
	}
	return fmt.Errorf("edge %d is not live", e)
}

// checkPos returns an error unless pos lies on a live edge, at a frac in
// [0,1] (NaN is not).
func (b *Batcher) checkPos(pos roadknn.Position) error {
	if b.topoAlive(pos.Edge) && pos.Frac >= 0 && pos.Frac <= 1 {
		return nil
	}
	if err := b.checkLive(pos.Edge); err != nil {
		return err
	}
	return fmt.Errorf("frac %v outside [0,1]", pos.Frac)
}

// AddEdge admits an edge insertion between u and v with weight w and
// returns the id the engine will deterministically assign it (reusing the
// most recently tombstoned id, exactly as the graph's allocator does). The
// caller has checked the edge with graph.CheckEdge: the batcher does not
// know the node set.
func (b *Batcher) AddEdge(u, v roadknn.NodeID, w float64) roadknn.EdgeID {
	id := roadknn.EdgeID(len(b.alive))
	n := len(b.free)
	if n > 0 {
		id = b.free[n-1]
		b.free = b.free[:n-1]
		b.alive[id] = true
	} else {
		b.alive = append(b.alive, true)
	}
	b.live++
	if b.undo.open {
		b.undo.reused = append(b.undo.reused, n > 0)
	}
	b.topoPend = append(b.topoPend, roadknn.TopologyUpdate{Op: roadknn.TopoAdd, Edge: id, U: u, V: v, W: w})
	return id
}

// RemoveEdge admits an edge removal. It returns an error unless e is live,
// is not the last live edge, and has no pending report positioned on it.
func (b *Batcher) RemoveEdge(e roadknn.EdgeID) error {
	if err := b.checkLive(e); err != nil {
		return err
	}
	if b.live <= 1 {
		return fmt.Errorf("removing edge %d would leave no live edge", e)
	}
	if b.pendingOnEdge(e) {
		return fmt.Errorf("edge %d has pending reports positioned on it; tick first", e)
	}
	b.removeEdge(e)
	return nil
}

func (b *Batcher) removeEdge(e roadknn.EdgeID) {
	b.free = append(b.free, e)
	b.alive[e] = false
	b.live--
	b.topoPend = append(b.topoPend, roadknn.TopologyUpdate{Op: roadknn.TopoRemove, Edge: e})
}

// pendingOnEdge reports whether any pending (non-delete) object or query
// report is positioned on edge e; a removal of e must be rejected while
// one is — the report was checked against e being live, and the engine
// would otherwise place the entity on a dead edge.
func (b *Batcher) pendingOnEdge(e roadknn.EdgeID) bool {
	for _, row := range b.objOrder {
		if r := &b.objRows[row]; r.pend == pendMove && r.to.Edge == e {
			return true
		}
	}
	for _, p := range b.qryPend {
		if !p.end && p.pos.Edge == e {
			return true
		}
	}
	return false
}

// Object reports object id at pos (insert or move — the batcher decides
// which from the applied state). It returns an error unless pos is on a
// live edge at a frac in [0,1].
func (b *Batcher) Object(id roadknn.ObjectID, pos roadknn.Position) error {
	if err := b.checkPos(pos); err != nil {
		return err
	}
	b.object(id, pos)
	return nil
}

func (b *Batcher) object(id roadknn.ObjectID, pos roadknn.Position) {
	row, _ := b.objIdx.Insert(int32(id))
	if int(row) == len(b.objRows) {
		b.objRows = append(b.objRows, objRow{})
	}
	r := b.report(row, pendMove)
	r.id, r.to = id, pos
}

// DeleteObject reports object id gone. Deleting an id that is neither
// applied nor pending is a no-op that returns false.
func (b *Batcher) DeleteObject(id roadknn.ObjectID) bool {
	row, ok := b.objIdx.Find(int32(id))
	if !ok {
		return false
	}
	b.report(row, pendDel)
	return true
}

// report marks row's object as having kind pending, listing it in
// objOrder at its first report this tick, and returns the row.
func (b *Batcher) report(row int32, kind pendKind) *objRow {
	r := &b.objRows[row]
	if r.pend == pendNone {
		b.objOrder = append(b.objOrder, row)
	} else if b.undo.open {
		b.undo.objs = append(b.undo.objs, objUndo{row, r.pend, r.to})
	}
	r.pend = kind
	return r
}

// Query reports query id at pos; k is used only if this installs (or,
// after an end within the same tick, re-installs) the query — on plain
// moves the registered k is kept, matching the engine protocol. It returns
// an error unless pos is on a live edge at a frac in [0,1] and k fits the
// engine's int32, and, where the report's k will reach Engine.Register,
// k >= 1.
func (b *Batcher) Query(id roadknn.QueryID, k int, pos roadknn.Position) error {
	if err := b.checkPos(pos); err != nil {
		return err
	}
	if k != int(int32(k)) {
		return fmt.Errorf("k %d outside the 32-bit range", k)
	}
	if k < 1 && b.needsK(id) {
		return fmt.Errorf("install requires k >= 1, got %d", k)
	}
	b.query(id, k, pos)
	return nil
}

func (b *Batcher) query(id roadknn.QueryID, k int, pos roadknn.Position) {
	prev, seen := b.qryPend[id]
	b.listQuery(id, prev, seen)
	next := pendingQry{pos: pos, k: k}
	// An end earlier in this tick makes the re-report a reinstall (and a
	// reinstall stays one through further moves).
	if seen && (prev.end || prev.reinstall) {
		next.reinstall = true
	}
	b.qryPend[id] = next
}

// EndQuery terminates query id. Ending an id that is neither applied nor
// pending is a no-op that returns false.
func (b *Batcher) EndQuery(id roadknn.QueryID) bool {
	_, applied := b.qryApplied[id]
	prev, pending := b.qryPend[id]
	if !applied && !pending {
		return false
	}
	b.listQuery(id, prev, pending)
	b.qryPend[id] = pendingQry{end: true}
	return true
}

// listQuery lists query id in qryOrder at its first report this tick, or,
// while the undo log is open, logs the pending entry prev that the report
// is about to overwrite.
func (b *Batcher) listQuery(id roadknn.QueryID, prev pendingQry, pending bool) {
	if !pending {
		b.qryOrder = append(b.qryOrder, id)
	} else if b.undo.open {
		b.undo.qrys = append(b.undo.qrys, entryUndo[roadknn.QueryID, pendingQry]{id, prev})
	}
}

// needsK reports whether a (non-end) Query report for id right now would
// have its k consumed at Drain — i.e. whether it starts or continues an
// install/reinstall chain rather than moving an applied query. Within a
// chain the last report's k wins, so every report on it must carry a
// valid k; Query uses this to reject k < 1 before it can reach
// Engine.Register.
func (b *Batcher) needsK(id roadknn.QueryID) bool {
	if p, ok := b.qryPend[id]; ok && (p.end || p.reinstall) {
		return true
	}
	_, applied := b.qryApplied[id]
	return !applied
}

// Edge reports edge's new weight (last report within a tick wins). It
// returns an error unless the edge is live and w passes graph.CheckWeight.
func (b *Batcher) Edge(edge roadknn.EdgeID, w float64) error {
	if err := b.checkLive(edge); err != nil {
		return err
	}
	if err := graph.CheckWeight(w); err != nil {
		return fmt.Errorf("edge %d: %w", edge, err)
	}
	b.edge(edge, w)
	return nil
}

func (b *Batcher) edge(edge roadknn.EdgeID, w float64) {
	if prev, seen := b.edgePend[edge]; !seen {
		b.edgeOrd = append(b.edgeOrd, edge)
	} else if b.undo.open {
		b.undo.edges = append(b.undo.edges, entryUndo[roadknn.EdgeID, float64]{edge, prev})
	}
	b.edgePend[edge] = w
}

// Pending returns the number of entities with pending changes.
func (b *Batcher) Pending() int {
	return len(b.objOrder) + len(b.qryPend) + len(b.edgePend) + len(b.topoPend)
}

// openLog marks where one admission starts, so that its reports can be
// applied, checked against the state they leave, and taken back whole with
// rollback — or kept with closeLog. Only admission opens the log; every
// other caller pays one untaken branch per re-report. Drain must not run
// while it is open.
func (b *Batcher) openLog() {
	b.undo.open = true
	b.undo.objMark, b.undo.qryMark, b.undo.edgeMark, b.undo.topoMark =
		len(b.objOrder), len(b.qryOrder), len(b.edgeOrd), len(b.topoPend)
}

// closeLog keeps the reports since openLog and stops recording.
func (b *Batcher) closeLog() {
	l := &b.undo
	l.open = false
	l.objs, l.qrys, l.edges, l.reused = l.objs[:0], l.qrys[:0], l.edges[:0], l.reused[:0]
}

// rollback undoes every report since openLog, leaving the batcher as it
// was then in all that it reads or returns, and closes the log.
func (b *Batcher) rollback() {
	l := &b.undo
	for i := len(l.objs) - 1; i >= 0; i-- {
		u := l.objs[i]
		b.objRows[u.row].pend, b.objRows[u.row].to = u.pend, u.to
	}
	for _, row := range b.objOrder[l.objMark:] {
		r := &b.objRows[row]
		r.pend = pendNone // to is read only while a move is pending
		if !r.applied {   // the admission created the row
			b.objIdx.Delete(int32(r.id))
			*r = objRow{}
		}
	}
	restore(b.qryPend, l.qrys, b.qryOrder[l.qryMark:])
	restore(b.edgePend, l.edges, b.edgeOrd[l.edgeMark:])
	adds := len(l.reused)
	for i := len(b.topoPend) - 1; i >= l.topoMark; i-- {
		e := b.topoPend[i].Edge
		if b.topoPend[i].Op == roadknn.TopoRemove {
			b.free = b.free[:len(b.free)-1]
			b.alive[e] = true
			b.live++
			continue
		}
		adds--
		if l.reused[adds] {
			b.free = append(b.free, e)
			b.alive[e] = false
		} else {
			b.alive = b.alive[:e] // a fresh id is the newest
		}
		b.live--
	}
	b.objOrder, b.qryOrder, b.edgeOrd, b.topoPend =
		b.objOrder[:l.objMark], b.qryOrder[:l.qryMark], b.edgeOrd[:l.edgeMark], b.topoPend[:l.topoMark]
	b.closeLog()
}

// Drain converts the pending reports into one Updates batch, advances the
// applied state accordingly, and clears the pending state. The returned
// batch is ready for Engine.Step.
func (b *Batcher) Drain() roadknn.Updates {
	u := b.Preview()
	b.commit(u)
	return u
}

// Preview returns the batch the next Drain would produce without
// advancing any state: pending reports stay pending and the applied state
// is untouched. The WAL path uses it to log the batch before committing
// — if the append fails, nothing was consumed and the batch survives for
// a retry (or a shutdown flush).
func (b *Batcher) Preview() roadknn.Updates {
	var u roadknn.Updates
	if len(b.topoPend) > 0 {
		u.Topology = append([]roadknn.TopologyUpdate(nil), b.topoPend...)
	}
	for _, row := range b.objOrder {
		r := &b.objRows[row]
		switch {
		case r.pend == pendDel && r.applied:
			u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: r.id, Delete: true})
		case r.pend == pendDel:
			// Inserted and deleted within one tick: nothing to apply.
		case r.applied:
			if r.at != r.to {
				u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: r.id, New: r.to})
			}
		default:
			u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: r.id, New: r.to, Insert: true})
		}
	}
	for _, id := range b.qryOrder {
		p := b.qryPend[id]
		old, existed := b.qryApplied[id]
		switch {
		case p.end && existed:
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, Delete: true})
		case p.end:
			// Installed and terminated within one tick.
		case existed && p.reinstall:
			// End + re-report within one tick: terminate and re-install so
			// the new k takes effect (engines apply terminations before
			// installations within a batch).
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, Delete: true})
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: p.pos, K: p.k, Insert: true})
		case existed:
			if old.pos != p.pos {
				u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: p.pos})
			}
		default:
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: p.pos, K: p.k, Insert: true})
		}
	}
	for _, eid := range b.edgeOrd {
		u.Edges = append(u.Edges, roadknn.EdgeUpdate{Edge: eid, NewW: b.edgePend[eid]})
	}
	return u
}

// commit makes u, the batch Preview built from the current pending reports,
// the applied state, and clears the pending state.
func (b *Batcher) commit(u roadknn.Updates) {
	// The edge view already includes u's topology ops.
	for _, tp := range u.Topology {
		if tp.Op == roadknn.TopoRemove {
			// The removal invalidates any recorded weight override:
			// should the id be reused, the reincarnated edge's weight
			// comes from its TopoAdd op, not from the dead road's
			// last traffic report.
			delete(b.edgeApplied, tp.Edge)
		}
	}
	b.topoApplied = append(b.topoApplied, u.Topology...)
	b.topoPend = b.topoPend[:0]
	// Objects commit from their rows, which u's object section was built
	// from: a reported position becomes the applied one, and a deleted
	// object's row is zeroed and released.
	for _, row := range b.objOrder {
		r := &b.objRows[row]
		if r.pend == pendDel {
			b.objIdx.Delete(int32(r.id))
			*r = objRow{}
			continue
		}
		r.applied, r.at, r.pend = true, r.to, pendNone
	}
	for _, qu := range u.Queries {
		switch {
		case qu.Delete:
			delete(b.qryApplied, qu.ID)
		case qu.Insert:
			b.qryApplied[qu.ID] = appliedQry{pos: qu.New, k: qu.K}
		default:
			b.qryApplied[qu.ID] = appliedQry{pos: qu.New, k: b.qryApplied[qu.ID].k}
		}
	}
	for _, eu := range u.Edges {
		// A weight report raced a same-tick removal of its edge: the engine
		// drops it (stale sensor report), so the applied view must not
		// record it either. It is still emitted — replay must reproduce the
		// logged batch byte for byte, and the engine's drop is
		// deterministic.
		if b.topoAlive(eu.Edge) {
			b.edgeApplied[eu.Edge] = eu.NewW
		}
	}
	clear(b.qryPend)
	clear(b.edgePend)
	b.objOrder = b.objOrder[:0]
	b.qryOrder = b.qryOrder[:0]
	b.edgeOrd = b.edgeOrd[:0]
}

// Replay feeds one recovered Updates batch back in as reports, so the
// next Drain reproduces exactly the batch that was logged: recovery runs
// the same Batcher→Engine path a live tick does. The batcher must be in
// the applied state the batch was drained from (the checkpoint state, or
// the state after replaying the preceding batches). The reports go to the
// unchecked appliers: the batch was admitted once already, and its
// topology section now applies first, so a weight report that a later
// request in its tick outdated by removing the edge must be kept, not
// rejected — the engine drops it deterministically.
func (b *Batcher) Replay(u roadknn.Updates) {
	for _, tp := range u.Topology {
		if tp.Op == roadknn.TopoRemove {
			b.removeEdge(tp.Edge)
			continue
		}
		id := b.AddEdge(tp.U, tp.V, tp.W)
		if tp.Edge >= 0 && tp.Edge != id {
			// The simulator re-derived a different id than the original run
			// recorded: wrong network file or corrupt log. Keep the recorded
			// id in the pending op so the engine's own assertion fails
			// loudly on Step instead of silently renumbering the edge space.
			b.topoPend[len(b.topoPend)-1].Edge = tp.Edge
		}
	}
	for _, e := range u.Edges {
		b.edge(e.Edge, e.NewW)
	}
	for _, o := range u.Objects {
		if o.Delete {
			b.DeleteObject(o.ID)
		} else {
			b.object(o.ID, o.New)
		}
	}
	for _, q := range u.Queries {
		if q.Delete {
			b.EndQuery(q.ID)
		} else {
			b.query(q.ID, q.K, q.New)
		}
	}
}

// ReconcileTopology repairs the applied-state view after a tick whose
// batch contained topology ops. Inside the engine, objects resident on a
// removed edge were re-snapped onto the nearest live edge, and queries
// stranded on one were re-snapped by the same deterministic rule — but no
// client reported those moves, so the batcher's applied positions have
// silently gone stale; left alone, the next report for such an entity
// would coalesce against the wrong position (and a replayed run would
// drift from the live one). net is the engine's network after the Step.
// Each tick with a removal scans every object row and every applied query,
// O(objects + queries); only the writes are churn-proportional: just the
// entities whose applied position lies on an edge the batch removed.
func (b *Batcher) ReconcileTopology(topo []roadknn.TopologyUpdate, net *roadknn.Network) {
	removed := make(map[roadknn.EdgeID]bool, len(topo))
	for _, tp := range topo {
		if tp.Op == roadknn.TopoRemove {
			removed[tp.Edge] = true
		}
	}
	if len(removed) == 0 {
		return
	}
	for i := range b.objRows {
		if r := &b.objRows[i]; r.applied && removed[r.at.Edge] {
			// Residents re-snap at the moment their edge is removed, so the
			// registry holds the authoritative position even if the id was
			// reused by a later insertion in the same batch.
			if np, ok := net.ObjectPos(r.id); ok {
				r.at = np
			}
		}
	}
	for id, q := range b.qryApplied {
		// Queries re-snap only if their edge is still dead after the whole
		// batch (an id reused by a same-batch insertion keeps the query,
		// now on the new road's geometry) — mirror the engine's rule
		// exactly.
		if removed[q.pos.Edge] && !net.G.EdgeAlive(q.pos.Edge) {
			if np, ok := net.Resnap(q.pos); ok {
				b.qryApplied[id] = appliedQry{pos: np, k: q.k}
			}
		}
	}
}

// CheckpointState returns the applied state — object positions,
// registered queries, edge weight overrides, and the ordered topology op
// log — as slices ready for a wal.Checkpoint. Pending (undrained) reports
// are not included; the caller checkpoints at a tick boundary where
// applied state and engine state coincide.
func (b *Batcher) CheckpointState() ([]wal.ObjectState, []wal.QueryState, []wal.EdgeState, []roadknn.TopologyUpdate) {
	objs := make([]wal.ObjectState, 0, b.objIdx.Len())
	for i := range b.objRows {
		if r := &b.objRows[i]; r.applied {
			objs = append(objs, wal.ObjectState{ID: r.id, Pos: r.at})
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	qrys := make([]wal.QueryState, 0, len(b.qryApplied))
	for id, q := range b.qryApplied {
		qrys = append(qrys, wal.QueryState{ID: int32(id), K: int32(q.k), Pos: q.pos})
	}
	sort.Slice(qrys, func(i, j int) bool { return qrys[i].ID < qrys[j].ID })
	edges := make([]wal.EdgeState, 0, len(b.edgeApplied))
	for e, w := range b.edgeApplied {
		edges = append(edges, wal.EdgeState{Edge: e, W: w})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Edge < edges[j].Edge })
	return objs, qrys, edges, append([]roadknn.TopologyUpdate(nil), b.topoApplied...)
}
