package serve

import (
	"fmt"
	"slices"
	"sort"

	"roadknn"
	"roadknn/internal/graph"
	"roadknn/internal/idtable"
	"roadknn/internal/wal"
)

// Batcher coalesces a stream of incoming object/query/edge events into
// per-timestamp Updates batches for the deterministic Step pipeline. It is
// the serving runtime's ingestion front-end: clients report where things
// are (or that they are gone), the Batcher tracks the objects and queries
// the engine last applied, and Drain emits the minimal batch that takes
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
// Objects and queries each live in a rowTable, one row per id that is
// applied or pending, and pending edge weights in a slot per edge id, so a
// report is one probe of an idtable.Table or one index, and nothing here is
// a Go map.
//
// A Batcher is not safe for concurrent use; the Server serializes access.
type Batcher struct {
	objs, qrys rowTable

	// weights is a slot per edge id, holding the weight last reported this
	// tick; edgeOrd lists the reported edges in first-report order. A slot is
	// pending while its stamp is drains+1, drains counting the Drains so far,
	// so a Drain retires every slot at once.
	weights []edgeSlot
	edgeOrd []roadknn.EdgeID
	drains  uint64

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
// mark: undoing it drops its pending state (and the row of an object or
// query that is not applied either, which the admission created). Only a
// report that overwrites a pending entry logs the entry, so the log holds a
// request's re-reports, not its reports. The row tables keep their own
// marks and logs.
type undoLog struct {
	open               bool
	edgeMark, topoMark int
	edges              []edgeUndo
	// reused holds, per insertion since the mark, whether it took its id
	// off the freelist rather than a fresh one.
	reused []bool
}

// edgeUndo is a pending weight before a report overwrote it.
type edgeUndo struct {
	edge roadknn.EdgeID
	w    float64
}

// edgeSlot is one edge id's pending weight, valid while stamp is the
// Batcher's drains+1.
type edgeSlot struct {
	w     float64
	stamp uint64
}

// rowTable holds one kind of entity, objects or queries: idx maps an id to
// its row in rows, which holds both what the engine has applied and what is
// pending this tick. An id has a row exactly while it is applied or
// pending; a row whose entity is gone is zeroed and released. order lists
// the pending rows in first-report order. While the Batcher's undo log is
// open, mark is order's length at openLog and undo the rows that re-reports
// overwrote since.
type rowTable struct {
	idx   idtable.Table
	rows  []row
	order []int32
	mark  int
	undo  []rowUndo
}

// rowUndo is row i before a report overwrote its pending state.
type rowUndo struct {
	i    int32
	prev row
}

// row is one object's or query's applied and pending state. The two
// positions are kept as edge and frac apart, so that a query's two k take
// the room a Position's padding would: a row is 40 bytes.
type row struct {
	id      int32
	applied bool
	pend    pendKind
	// reinstall marks a query re-reported after an end within one tick: the
	// engine must terminate and re-install it (the new k takes effect), not
	// just move it.
	reinstall      bool
	atEdge, toEdge roadknn.EdgeID // applied, and reported while pend is pendMove
	k, toK         int32          // a query's applied and reported k
	atFrac, toFrac float64
}

func (r *row) at() roadknn.Position { return roadknn.Position{Edge: r.atEdge, Frac: r.atFrac} }
func (r *row) to() roadknn.Position { return roadknn.Position{Edge: r.toEdge, Frac: r.toFrac} }

// pendKind is what a row has pending this tick.
type pendKind uint8

const (
	pendNone pendKind = iota
	pendMove          // reported at the row's to()
	pendGone          // an object reported deleted, a query ended
)

// add returns id's row, taking a zeroed one if id has none.
func (t *rowTable) add(id int32) int32 {
	i, _ := t.idx.Insert(id)
	if int(i) == len(t.rows) {
		t.rows = append(t.rows, row{})
	}
	t.rows[i].id = id
	return i
}

// report marks row i as having kind pending and returns it. The row is
// listed in order at its first report this tick; a later report, while log
// is set, logs the row it overwrites.
func (t *rowTable) report(i int32, kind pendKind, log bool) *row {
	r := &t.rows[i]
	if r.pend == pendNone {
		t.order = append(t.order, i)
	} else if log {
		t.undo = append(t.undo, rowUndo{i, *r})
	}
	r.pend = kind
	return r
}

// gone reports id's entity gone, or returns false if id has no row.
func (t *rowTable) gone(id int32, log bool) bool {
	i, ok := t.idx.Find(id)
	if ok {
		t.report(i, pendGone, log)
	}
	return ok
}

// pendingOn reports whether a pending move is positioned on edge e.
func (t *rowTable) pendingOn(e roadknn.EdgeID) bool {
	for _, i := range t.order {
		if r := &t.rows[i]; r.pend == pendMove && r.toEdge == e {
			return true
		}
	}
	return false
}

// release zeroes row i and frees it for the next new id.
func (t *rowTable) release(i int32) {
	t.idx.Delete(t.rows[i].id)
	t.rows[i] = row{}
}

// rollback undoes the reports since the mark: logged rows get their state
// back, newest first, and the rows first reported since the mark (order's
// tail) drop their pending state, or are released if nothing is applied.
func (t *rowTable) rollback() {
	for j := len(t.undo) - 1; j >= 0; j-- {
		t.rows[t.undo[j].i] = t.undo[j].prev
	}
	for _, i := range t.order[t.mark:] {
		if r := &t.rows[i]; r.applied {
			r.pend, r.reinstall = pendNone, false
		} else {
			t.release(i)
		}
	}
	t.order = t.order[:t.mark]
}

// commit makes the pending rows the applied state: a reported position
// becomes the applied one, as does a reported k where it installs, and a
// row reported gone is released.
func (t *rowTable) commit() {
	for _, i := range t.order {
		r := &t.rows[i]
		if r.pend == pendGone {
			t.release(i)
			continue
		}
		if !r.applied || r.reinstall {
			r.k = r.toK
		}
		r.applied, r.atEdge, r.atFrac, r.pend, r.reinstall = true, r.toEdge, r.toFrac, pendNone, false
	}
	t.order = t.order[:0]
}

// NewBatcher returns an empty batcher with an empty edge view: every report
// that names an edge is rejected until InitTopology seeds it.
func NewBatcher() *Batcher { return &Batcher{} }

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
	return b.objs.pendingOn(e) || b.qrys.pendingOn(e)
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
	r := b.objs.report(b.objs.add(int32(id)), pendMove, b.undo.open)
	r.toEdge, r.toFrac = pos.Edge, pos.Frac
}

// DeleteObject reports object id gone. Deleting an id that is neither
// applied nor pending is a no-op that returns false.
func (b *Batcher) DeleteObject(id roadknn.ObjectID) bool { return b.objs.gone(int32(id), b.undo.open) }

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
	i := b.qrys.add(int32(id))
	ended := b.qrys.rows[i].pend == pendGone
	r := b.qrys.report(i, pendMove, b.undo.open)
	// An end earlier in this tick makes the re-report a reinstall (and a
	// reinstall stays one through further moves).
	r.reinstall = r.reinstall || ended
	r.toEdge, r.toFrac, r.toK = pos.Edge, pos.Frac, int32(k)
}

// EndQuery terminates query id. Ending an id that is neither applied nor
// pending is a no-op that returns false.
func (b *Batcher) EndQuery(id roadknn.QueryID) bool { return b.qrys.gone(int32(id), b.undo.open) }

// needsK reports whether a (non-end) Query report for id right now would
// have its k consumed at Drain — i.e. whether it starts or continues an
// install/reinstall chain rather than moving an applied query. Within a
// chain the last report's k wins, so every report on it must carry a
// valid k; Query uses this to reject k < 1 before it can reach
// Engine.Register.
func (b *Batcher) needsK(id roadknn.QueryID) bool {
	i, ok := b.qrys.idx.Find(int32(id))
	if !ok {
		return true
	}
	r := &b.qrys.rows[i]
	return !r.applied || r.pend == pendGone || r.reinstall
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
	// The slots grow on demand, not with the edge view: replay and
	// checkpoint installation feed ids unchecked, and one written against
	// another network file may name an id past it, which the engine drops
	// and the snapshot check then reports.
	if n := int(edge) + 1 - len(b.weights); n > 0 {
		b.weights = append(b.weights, make([]edgeSlot, n)...)
	}
	s := &b.weights[edge]
	if s.stamp != b.drains+1 {
		s.stamp = b.drains + 1
		b.edgeOrd = append(b.edgeOrd, edge)
	} else if b.undo.open {
		b.undo.edges = append(b.undo.edges, edgeUndo{edge, s.w})
	}
	s.w = w
}

// Pending returns the number of entities with pending changes.
func (b *Batcher) Pending() int {
	return len(b.objs.order) + len(b.qrys.order) + len(b.edgeOrd) + len(b.topoPend)
}

// openLog marks where one admission starts, so that its reports can be
// applied, checked against the state they leave, and taken back whole with
// rollback — or kept with closeLog. Only admission opens the log; every
// other caller pays one untaken branch per re-report. Drain must not run
// while it is open.
func (b *Batcher) openLog() {
	b.undo.open = true
	b.objs.mark, b.qrys.mark = len(b.objs.order), len(b.qrys.order)
	b.undo.edgeMark, b.undo.topoMark = len(b.edgeOrd), len(b.topoPend)
}

// closeLog keeps the reports since openLog and stops recording.
func (b *Batcher) closeLog() {
	l := &b.undo
	l.open = false
	b.objs.undo, b.qrys.undo, l.edges, l.reused = b.objs.undo[:0], b.qrys.undo[:0], l.edges[:0], l.reused[:0]
}

// rollback undoes every report since openLog, leaving the batcher as it
// was then in all that it reads or returns, and closes the log.
func (b *Batcher) rollback() {
	l := &b.undo
	b.objs.rollback()
	b.qrys.rollback()
	for i := len(l.edges) - 1; i >= 0; i-- {
		b.weights[l.edges[i].edge].w = l.edges[i].w
	}
	for _, e := range b.edgeOrd[l.edgeMark:] {
		b.weights[e].stamp = 0
	}
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
	b.edgeOrd, b.topoPend = b.edgeOrd[:l.edgeMark], b.topoPend[:l.topoMark]
	b.closeLog()
}

// Drain converts the pending reports into one Updates batch, advances the
// applied state accordingly, and clears the pending state. The returned
// batch is ready for Engine.Step.
func (b *Batcher) Drain() roadknn.Updates {
	u := b.Preview()
	b.commit()
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
	for _, i := range b.objs.order {
		r := &b.objs.rows[i]
		id := roadknn.ObjectID(r.id)
		switch {
		case r.pend == pendGone && r.applied:
			u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, Delete: true})
		case r.pend == pendGone:
			// Inserted and deleted within one tick: nothing to apply.
		case r.applied:
			if r.at() != r.to() {
				u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: r.to()})
			}
		default:
			u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: r.to(), Insert: true})
		}
	}
	for _, i := range b.qrys.order {
		r := &b.qrys.rows[i]
		id := roadknn.QueryID(r.id)
		switch {
		case r.pend == pendGone && r.applied:
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, Delete: true})
		case r.pend == pendGone:
			// Installed and terminated within one tick.
		case r.applied && r.reinstall:
			// End + re-report within one tick: terminate and re-install so
			// the new k takes effect (engines apply terminations before
			// installations within a batch).
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, Delete: true},
				roadknn.QueryUpdate{ID: id, New: r.to(), K: int(r.toK), Insert: true})
		case r.applied:
			if r.at() != r.to() {
				u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: r.to()})
			}
		default:
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: r.to(), K: int(r.toK), Insert: true})
		}
	}
	for _, e := range b.edgeOrd {
		u.Edges = append(u.Edges, roadknn.EdgeUpdate{Edge: e, NewW: b.weights[e].w})
	}
	return u
}

// commit makes the pending reports, which Preview turned into the batch,
// the applied state, and clears the pending state. The edge view already
// includes the topology ops, and the graph, not the batcher, holds the
// weights.
func (b *Batcher) commit() {
	b.topoApplied = append(b.topoApplied, b.topoPend...)
	b.topoPend = b.topoPend[:0]
	b.objs.commit()
	b.qrys.commit()
	b.drains++
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
//
// A road insertion that is assigned another edge id than the one logged
// means the log was written against another network file (or is corrupt):
// Replay then stops and returns an error, and the batcher is fit only to be
// discarded.
func (b *Batcher) Replay(u roadknn.Updates) error {
	for _, tp := range u.Topology {
		if tp.Op == roadknn.TopoRemove {
			b.removeEdge(tp.Edge)
			continue
		}
		if id := b.AddEdge(tp.U, tp.V, tp.W); tp.Edge >= 0 && tp.Edge != id {
			return fmt.Errorf("a logged road insertion is assigned edge %d, the log says %d "+
				"(is this the network file the log was written against?)", id, tp.Edge)
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
	return nil
}

// ReconcileTopology repairs the applied-state view after a tick whose
// batch contained topology ops. Inside the engine, objects resident on a
// removed edge were re-snapped onto the nearest live edge, and queries
// stranded on one were re-snapped by the same deterministic rule — but no
// client reported those moves, so the batcher's applied positions have
// silently gone stale; left alone, the next report for such an entity
// would coalesce against the wrong position (and a replayed run would
// drift from the live one). net is the engine's network after the Step.
// A tick with a removal reads every applied object's position from the
// network's registry, O(objects), and tests every applied query's edge.
func (b *Batcher) ReconcileTopology(topo []roadknn.TopologyUpdate, net *roadknn.Network) {
	if !slices.ContainsFunc(topo, func(tp roadknn.TopologyUpdate) bool { return tp.Op == roadknn.TopoRemove }) {
		return
	}
	for i := range b.objs.rows {
		// The registry holds every object where the Step left it: a
		// resident re-snapped at the moment its edge was removed, even if a
		// later insertion in the batch reused the id, and every other
		// object where the batcher applied it.
		if r := &b.objs.rows[i]; r.applied {
			if np, ok := net.ObjectPos(roadknn.ObjectID(r.id)); ok {
				r.atEdge, r.atFrac = np.Edge, np.Frac
			}
		}
	}
	for i := range b.qrys.rows {
		// The engine's rule: a query re-snaps if its edge is dead after the
		// whole batch (an id reused by a same-batch insertion keeps the
		// query, now on the new road's geometry).
		if r := &b.qrys.rows[i]; r.applied && !net.G.EdgeAlive(r.atEdge) {
			if np, ok := net.Resnap(r.at()); ok {
				r.atEdge, r.atFrac = np.Edge, np.Frac
			}
		}
	}
}

// CheckpointState returns the applied state — object positions, registered
// queries and the ordered topology op log — as slices ready for a
// wal.Checkpoint, objects and queries by ascending id. Pending (undrained)
// reports are not included; the caller checkpoints at a tick boundary
// where applied state and engine state coincide, and takes the edge
// weights from the engine's graph.
func (b *Batcher) CheckpointState() ([]wal.ObjectState, []wal.QueryState, []roadknn.TopologyUpdate) {
	objs := make([]wal.ObjectState, 0, b.objs.idx.Len())
	for i := range b.objs.rows {
		if r := &b.objs.rows[i]; r.applied {
			objs = append(objs, wal.ObjectState{ID: roadknn.ObjectID(r.id), Pos: r.at()})
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	qrys := make([]wal.QueryState, 0, b.qrys.idx.Len())
	for i := range b.qrys.rows {
		if r := &b.qrys.rows[i]; r.applied {
			qrys = append(qrys, wal.QueryState{ID: r.id, K: r.k, Pos: r.at()})
		}
	}
	sort.Slice(qrys, func(i, j int) bool { return qrys[i].ID < qrys[j].ID })
	return objs, qrys, append([]roadknn.TopologyUpdate(nil), b.topoApplied...)
}
