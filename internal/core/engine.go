package core

import (
	"fmt"
	"slices"

	"roadknn/internal/roadnet"
)

// Mode is where a registered query's state lives inside an Incremental
// engine. It is chosen per query by the engine's placement function and can
// be flipped at a tick boundary (SetMode); results are the same k-NN sets
// either way, only the maintenance cost differs.
type Mode uint8

const (
	// Direct gives the query its own monitor: an expansion tree and
	// influence lists, so only relevant updates are processed and the valid
	// part of the tree is reused after query movements and edge weight
	// changes (paper §4, IMA).
	Direct Mode = iota
	// Grouped answers the query from the objects inside its sequence plus
	// the monitored k-NN sets of the sequence's endpoint nodes, shared with
	// every other grouped query on that sequence (paper §5, GMA).
	Grouped
)

// Incremental is the one incremental monitoring engine under IMA, GMA and
// AUTO. It owns the network, the query table, one monitor set (one influence
// table, one worker pool and arena set) and one publisher. The table has one
// row per registered query, whichever its mode; the set holds a direct
// monitor per Direct query and a node monitor per active sequence endpoint;
// a Grouped query is a client of node monitors, evaluated by the sequence
// walk of gma_eval.go after the set has stepped. IMA and GMA are the two
// fixed placements (all Direct, all Grouped); the adaptive planner
// (internal/planner) supplies a placement function and flips modes.
//
// One timestamp is one pass (Advance): topology edits, then query
// terminations and grouped moves, then grouped installations (all of which
// may activate or deactivate node monitors), then one monitorSet.step over
// objects, edges and direct moves, then the grouped re-evaluation from the
// changed node monitors and each updated sequence's query list, then direct
// installations — terminations before any other update and new installations
// after all of them, per §4.5, in either mode (see Updates) — and finally one
// publication (Commit).
type Incremental struct {
	name string
	qt   queryTable
	set  *monitorSet
	// grp is the grouped layer, materialised at the first grouped query and
	// dropped at the first tick boundary with none left.
	grp       *groupLayer
	place     func(roadnet.Position) Mode
	naiveEval bool // handed to the grouped layer (the GMA-naive ablation)
	// departures makes every step record Departures, grouped layer or not:
	// set on engines built by NewIncremental, whose owner (the planner)
	// reads them. The fixed placements record them only while a grouped
	// layer, their one reader, exists.
	departures bool
	pub        publisher

	// Per-step buffers, reused across steps: the direct moves and the
	// installations of the running step, and the ids a batch installs and
	// terminates (checkInserts).
	moves          []queryMove
	inserts        []QueryUpdate
	insIDs, delIDs []QueryID
}

// NewIncremental creates an engine over net that places each newly
// registered query by place (consulted once, at registration). The engine
// takes ownership of the network's object registry and edge weights.
func NewIncremental(name string, net *roadnet.Network, o Options, place func(roadnet.Position) Mode) *Incremental {
	e := newIncremental(name, net, o, place)
	e.departures = true
	return e
}

// newIncremental is NewIncremental for a fixed placement, which records
// Departures only for its grouped layer.
func newIncremental(name string, net *roadnet.Network, o Options, place func(roadnet.Position) Mode) *Incremental {
	e := &Incremental{name: name, place: place}
	e.set = newMonitorSet(net, &e.qt)
	e.set.configure(o)
	e.pub.init(o)
	return e
}

func fixed(m Mode) func(roadnet.Position) Mode {
	return func(roadnet.Position) Mode { return m }
}

// NewIMA creates the incremental monitoring algorithm (paper §4) over net
// with default options (worker pool sized to GOMAXPROCS): every query is
// Direct.
func NewIMA(net *roadnet.Network) *Incremental { return NewIMAWith(net, Options{}) }

// NewIMAWith creates an IMA engine over net with the given options.
func NewIMAWith(net *roadnet.Network, o Options) *Incremental {
	return newIncremental("IMA", net, o, fixed(Direct))
}

// NewGMA creates the group monitoring algorithm (paper §5) over net with
// default options: every query is Grouped.
func NewGMA(net *roadnet.Network) *Incremental { return NewGMAWith(net, Options{}) }

// NewGMAWith creates a GMA engine over net with the given options.
func NewGMAWith(net *roadnet.Network, o Options) *Incremental {
	return newIncremental("GMA", net, o, fixed(Grouped))
}

// Name implements Engine.
func (e *Incremental) Name() string { return e.name }

// Network implements Engine.
func (e *Incremental) Network() *roadnet.Network { return e.set.net }

// grouped returns the grouped layer, materialising it on first use. Every
// activation point is a deterministic function of the replayed stream, so
// replicas materialise it at identical ticks.
func (e *Incremental) grouped() *groupLayer {
	if e.grp == nil {
		e.grp = newGroupLayer(e.set, e.naiveEval)
	}
	return e.grp
}

// Placement reports a registered query's current position, k and mode. The
// engine is authoritative for the position: under topology churn it
// re-snaps queries off removed edges, so it may differ from where the
// query was registered or last moved.
func (e *Incremental) Placement(id QueryID) (pos roadnet.Position, k int, mode Mode, ok bool) {
	if r := e.qt.find(id); r != nil {
		pos, k, mode = r.placement()
		return pos, k, mode, true
	}
	return roadnet.Position{}, 0, Direct, false
}

// Placements calls yield with every registered query's id, position, k and
// mode, ascending by id.
func (e *Incremental) Placements(yield func(id QueryID, pos roadnet.Position, k int, mode Mode)) {
	for i := range e.qt.rows {
		pos, k, mode := e.qt.rows[i].placement()
		yield(e.qt.rows[i].id, pos, k, mode)
	}
}

func dupMsg(id QueryID) string { return fmt.Sprintf("core: query %d already registered", id) }

// Register implements Engine.
func (e *Incremental) Register(id QueryID, pos roadnet.Position, k int) {
	if e.qt.find(id) != nil {
		panic(dupMsg(id))
	}
	e.qt.insert(e.install(id, pos, k, e.place(pos)))
	e.publish()
}

// Unregister implements Engine.
func (e *Incremental) Unregister(id QueryID) {
	e.remove(id, false)
	e.publish()
}

// install computes a new query's state from scratch in the given mode,
// outside a step, and returns its row.
func (e *Incremental) install(id QueryID, pos roadnet.Position, k int, mode Mode) queryRow {
	if mode == Grouped {
		g := e.grouped()
		q := g.add(id, pos, k, false)
		g.evaluate(q, e.set.arena(0))
		return queryRow{id: id, grp: q}
	}
	return queryRow{id: id, mon: e.set.register(int32(id), pos, k, false)}
}

// drop discards the state behind a row, whichever mode holds it.
func (e *Incremental) drop(r queryRow, inStep bool) {
	if r.grp != nil {
		e.grp.remove(r.grp, inStep)
	} else {
		e.set.unregister(r.mon)
	}
}

// remove terminates a query; unknown ids are ignored.
func (e *Incremental) remove(id QueryID, inStep bool) {
	if r, ok := e.qt.remove(id); ok {
		e.drop(r, inStep)
	}
}

// SetMode moves a registered query's state into mode: its old state is
// dropped and the new one computed from scratch at the current position and
// network, exactly as a fresh registration in that mode would; its row stays
// where it is. Nothing is published; callers flip modes at a tick boundary,
// between Advance and Commit or ahead of Rebuild.
func (e *Incremental) SetMode(id QueryID, mode Mode) {
	r := e.qt.find(id)
	if r == nil {
		return
	}
	pos, k, cur := r.placement()
	if cur == mode {
		return
	}
	e.drop(*r, false)
	*r = e.install(id, pos, k, mode)
}

// Step implements Engine.
func (e *Incremental) Step(u Updates) {
	e.Advance(u)
	e.Commit()
}

// checkInserts panics, before the step changes any state, if the batch
// installs an id that is registered and not terminated by the same batch,
// or installs one id twice: the same rule, and message, as Register.
func (e *Incremental) checkInserts(qs []QueryUpdate) {
	ins, del := e.insIDs[:0], e.delIDs[:0]
	for _, qu := range qs {
		if qu.Insert {
			ins = append(ins, qu.ID)
		}
		if qu.Delete {
			del = append(del, qu.ID)
		}
	}
	e.insIDs, e.delIDs = ins, del
	if len(ins) == 0 {
		return
	}
	slices.Sort(ins)
	slices.Sort(del)
	for i, id := range ins {
		_, terminated := slices.BinarySearch(del, id)
		if (i > 0 && ins[i-1] == id) || (e.qt.find(id) != nil && !terminated) {
			panic(dupMsg(id))
		}
	}
}

// Advance applies one timestamp's updates and refreshes every result,
// without publishing: Step is Advance followed by Commit. The split exists
// for the planner, which re-places queries in between.
func (e *Incremental) Advance(u Updates) {
	e.checkInserts(u.Queries)

	// Topology edits restructure the adjacency and invalidate the sequence
	// decomposition itself; they apply first. The network is mutated once,
	// by the set; the grouped layer deactivates its node monitors before
	// and rebuilds its bookkeeping after, all ahead of any routing.
	if len(u.Topology) > 0 {
		if e.grp != nil {
			e.grp.deactivate()
		}
		e.set.applyTopology(u.Topology)
		if e.grp != nil {
			e.grp.redecompose()
		}
	}

	// Query updates: every termination, then the moves, then every
	// installation, so an id the batch both installs and terminates loses its
	// old registration and keeps the new one, and a move of an id the batch
	// terminates finds no row and is ignored, whatever the order and the
	// mode. A direct move carries the monitor its row resolved to. A Grouped
	// installation joins the step's evaluation stage, a Direct one is
	// computed once the step is over.
	for _, qu := range u.Queries {
		if qu.Delete {
			e.remove(qu.ID, true)
		}
	}
	moves, inserts := e.moves[:0], e.inserts[:0]
	for _, qu := range u.Queries {
		switch {
		case qu.Delete:
		case qu.Insert:
			inserts = append(inserts, qu)
		default:
			r := e.qt.find(qu.ID)
			switch {
			case r == nil: // unknown, or terminated by this batch
			case r.grp != nil:
				e.grp.move(r.grp, qu.New)
			default:
				moves = append(moves, queryMove{m: r.mon, pos: qu.New})
			}
		}
	}
	direct := inserts[:0]
	for _, qu := range inserts {
		if e.place(qu.New) == Grouped {
			e.qt.insert(queryRow{id: qu.ID, grp: e.grouped().add(qu.ID, qu.New, qu.K, true)})
		} else {
			direct = append(direct, qu)
		}
	}
	e.moves, e.inserts = moves, inserts

	e.set.keepDeparted = e.departures || e.grp != nil
	changed := e.set.step(u.Objects, u.Edges, moves)
	if e.grp != nil {
		e.grp.reevaluate(changed, u)
	}
	// Neither reused buffer may keep a monitor released later reachable.
	clear(moves)
	clear(changed)
	for _, qu := range direct {
		e.qt.insert(queryRow{id: qu.ID, mon: e.set.register(int32(qu.ID), qu.New, qu.K, false)})
	}
}

// Departures lists where the last Advance found its object updates, in
// batch order, insertions left out: the position each object left, or
// graph.NoEdge for a delete of an unknown id. The next Advance reuses the
// slice. Only an engine built by NewIncremental records them at every
// step; IMA and GMA record them while they hold a grouped query, and
// return nil otherwise.
func (e *Incremental) Departures() []roadnet.Position { return e.set.departed }

// Commit closes the timestamp opened by Advance: it counts the tick and
// publishes. A grouped layer left without queries is dropped here, and the
// monitor pool trimmed to the tick's registrations.
func (e *Incremental) Commit() {
	e.dropIdleLayer()
	e.set.trimFree()
	e.pub.tick()
	e.publish()
}

func (e *Incremental) dropIdleLayer() {
	if e.grp != nil && e.grp.n == 0 {
		e.grp = nil
	}
}

// publish installs a fresh snapshot over the query table (no-op unless the
// engine is serving).
func (e *Incremental) publish() { e.pub.publish(&e.qt) }

// Result implements Engine.
func (e *Incremental) Result(id QueryID) []Neighbor { return e.pub.result(&e.qt, id) }

// Snapshot implements Engine.
func (e *Incremental) Snapshot() *Snapshot { return e.pub.snapshot() }

// RestoreClock implements ClockRestorer: it seeds the epoch/timestamp
// counters after a recovery rebuild (see internal/wal).
func (e *Incremental) RestoreClock(epoch, stamp uint64) { e.pub.restore(epoch, stamp) }

// Rebuild implements Rebuilder: every monitor — direct and node alike — is
// recomputed from scratch at the current positions, then every grouped
// query is re-evaluated serially in ascending id order against the node
// results, and the result republished. The rows do not change.
func (e *Incremental) Rebuild() {
	e.dropIdleLayer()
	e.set.rebuildAll()
	if g := e.grp; g != nil {
		for q := range g.queries {
			g.evaluate(q, e.set.arena(0))
		}
	}
	e.publish()
}

// Queries implements Engine.
func (e *Incremental) Queries() []QueryID { return e.qt.ids() }

// SizeBytes implements Engine: the monitors' trees, candidates and
// influence lists, plus the grouped layer's own structures while it exists.
func (e *Incremental) SizeBytes() int {
	n := e.set.sizeBytes()
	if e.grp != nil {
		n += e.grp.sizeBytes()
	}
	return n
}

// StepStats counts what the monitors and grouped evaluations of an engine
// have done since it was built: the regime a workload puts the incremental
// core in. Counters only grow; callers difference two readings.
type StepStats struct {
	Affected           int // monitor finalizes: one per monitor per timestamp that reached it
	Touched            int // object reports handed to those finalizes
	Recomputes         int // finalizes that recomputed from scratch
	Reexpansions       int // finalizes that resumed the expansion
	ForcedReexpansions int // ... because a handler pruned the tree or a weight dropped
	IdleReexpansions   int // ... and verified no node
	NodesVerified      int // nodes verified by all expansions, initial ones included
	Evaluations        int // grouped-query evaluations
	EvalEntries        int // entries they read: own-edge and walked-edge objects, node-set entries within the bound
	Offers             int // (object report, monitor) pairs classified: each departure and arrival, per monitor of its edge
	Deliveries         int // (edge run, monitor) pairs those came in: one per monitor of an edge with reports
}

func (a *StepStats) add(b StepStats) {
	a.Affected += b.Affected
	a.Touched += b.Touched
	a.Recomputes += b.Recomputes
	a.Reexpansions += b.Reexpansions
	a.ForcedReexpansions += b.ForcedReexpansions
	a.IdleReexpansions += b.IdleReexpansions
	a.NodesVerified += b.NodesVerified
	a.Evaluations += b.Evaluations
	a.EvalEntries += b.EvalEntries
	a.Offers += b.Offers
	a.Deliveries += b.Deliveries
}

// StepStats returns the engine's work counters, summed over its worker
// arenas. Like Step, it must not race Step: read it between steps.
func (e *Incremental) StepStats() StepStats { return e.set.arenas.stats() }

// Close implements Engine.
func (e *Incremental) Close() { e.set.pool.Close() }
