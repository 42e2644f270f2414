package core

import (
	"runtime"

	"roadknn/internal/pool"
	"roadknn/internal/roadnet"
)

// OVH is the overhaul baseline of the paper's evaluation (§6): every
// timestamp it applies the updates and recomputes every query from scratch
// with the Figure-2 algorithm. Figure 2 includes the influence-list writes
// (lines 10 and 28), so OVH maintains the edge table's influence lists like
// the original — it just never exploits them.
type OVH struct {
	net *roadnet.Network
	il  *ilTable
	// qt is the query table; every row holds a monitor.
	qt      queryTable
	workers int
	// pool is the persistent worker pool of the recompute stage; recFn is
	// e.recomputeShard bound once so pool dispatch never allocates.
	pool  *pool.Pool
	recFn func(worker, i int)
	pub   publisher
	// arenas holds the per-worker scratch arenas for the from-scratch
	// searches (arena 0 serves the serial paths).
	arenas arenaPool
	// stepBufs are the parallel recompute stage's per-shard (per-row)
	// influence-op buffers, retained across steps to amortize allocations.
	stepBufs [][]ilOp
}

// arena returns the scratch arena for worker i.
func (e *OVH) arena(i int) *scratch {
	return e.arenas.get(i, e.net.G.NumNodes())
}

// NewOVH creates an OVH engine over net with default options (worker pool
// sized to GOMAXPROCS).
func NewOVH(net *roadnet.Network) *OVH {
	return NewOVHWith(net, Options{})
}

// NewOVHWith creates an OVH engine over net with the given options.
func NewOVHWith(net *roadnet.Network, o Options) *OVH {
	e := &OVH{
		net:     net,
		il:      newILTable(net.G.NumEdges()),
		workers: o.workers(),
	}
	e.pool = pool.New(e.workers)
	e.recFn = e.recomputeShard
	e.pub.init(o)
	runtime.AddCleanup(e, func(p *pool.Pool) { p.Close() }, e.pool)
	return e
}

// Name implements Engine.
func (e *OVH) Name() string { return "OVH" }

// Network implements Engine.
func (e *OVH) Network() *roadnet.Network { return e.net }

// Register implements Engine.
func (e *OVH) Register(id QueryID, pos roadnet.Position, k int) {
	m := newMonitor(e.net, e.il, int32(id), pos, k)
	e.qt.insert(queryRow{id: id, mon: m})
	m.computeInitial(e.arena(0))
	e.publish()
}

// Unregister implements Engine.
func (e *OVH) Unregister(id QueryID) {
	e.unregister(id)
	e.publish()
}

func (e *OVH) unregister(id QueryID) {
	if r, ok := e.qt.remove(id); ok {
		r.mon.clearIL()
	}
}

// applyTopology applies one timestamp's edge edits. OVH recomputes every
// query from scratch each Step, so beyond the network mutation itself only
// the influence table's edge range and the positions of queries stranded on
// removed edges need attention.
func (e *OVH) applyTopology(topo []TopologyUpdate) {
	g := e.net.G
	applyTopologyOps(e.net, topo, nil)
	e.il.grow(g.NumEdges())
	for _, r := range e.qt.rows {
		if !g.EdgeAlive(r.mon.pos.Edge) {
			r.mon.pos = resnap(e.net, r.mon.pos)
		}
	}
}

// Step implements Engine.
func (e *OVH) Step(u Updates) {
	if len(u.Topology) > 0 {
		e.applyTopology(u.Topology)
	}
	for _, eu := range u.Edges {
		if !e.net.G.EdgeAlive(eu.Edge) {
			continue // edge removed this timestamp; stale sensor report
		}
		e.net.G.SetWeight(eu.Edge, eu.NewW)
	}
	for _, ou := range u.Objects {
		switch {
		case ou.Insert:
			e.net.AddObject(ou.ID, ou.New)
		case ou.Delete:
			e.net.RemoveObject(ou.ID)
		default:
			e.net.MoveObject(ou.ID, ou.New)
		}
	}
	// Every termination, then the moves, then every installation (the rule
	// of Updates).
	for _, qu := range u.Queries {
		if qu.Delete {
			e.unregister(qu.ID)
		}
	}
	for _, qu := range u.Queries {
		if !qu.Delete && !qu.Insert {
			if r := e.qt.find(qu.ID); r != nil {
				r.mon.pos = qu.New
			}
		}
	}
	for _, qu := range u.Queries {
		if qu.Insert && !qu.Delete {
			e.qt.insert(queryRow{id: qu.ID, mon: newMonitor(e.net, e.il, int32(qu.ID), qu.New, qu.K)})
		}
	}
	// Recompute every query from scratch. Queries are independent here —
	// each reads the (now final) shared network and writes only its own
	// monitor — so the per-query searches fan out over the worker pool,
	// with influence-table writes deferred into per-shard buffers and
	// merged in ascending query order.
	rows := e.qt.rows
	if e.workers > 1 && len(rows) > 1 {
		for len(e.stepBufs) < len(rows) {
			e.stepBufs = append(e.stepBufs, nil)
		}
		bufs := e.stepBufs[:len(rows)]
		for i := range bufs {
			bufs[i] = bufs[i][:0]
		}
		for w := 0; w < min(e.workers, len(rows)); w++ {
			e.arena(w) // pre-create outside the workers
		}
		e.pool.Run(len(rows), e.recFn)
		for i, r := range rows {
			for _, op := range bufs[i] {
				if op.add {
					e.il.add(op.edge, r.mon)
				} else {
					e.il.remove(op.edge, r.mon)
				}
			}
		}
	} else {
		e.recomputeAll()
	}
	e.pub.tick()
	e.publish()
}

// recomputeAll recomputes every query from scratch on the caller, in id
// order.
func (e *OVH) recomputeAll() {
	sc := e.arena(0)
	for _, r := range e.qt.rows {
		r.mon.computeInitial(sc)
	}
}

// recomputeShard recomputes the query of row i from scratch on pool worker
// wk, deferring its influence-table writes into the shard buffer.
func (e *OVH) recomputeShard(wk, i int) {
	m := e.qt.rows[i].mon
	m.ilDefer = &e.stepBufs[i]
	m.computeInitial(e.arena(wk))
	m.ilDefer = nil
}

// publish installs a fresh snapshot over the query table (no-op unless the
// engine is serving).
func (e *OVH) publish() { e.pub.publish(&e.qt) }

// Result implements Engine.
func (e *OVH) Result(id QueryID) []Neighbor { return e.pub.result(&e.qt, id) }

// Snapshot implements Engine.
func (e *OVH) Snapshot() *Snapshot { return e.pub.snapshot() }

// RestoreClock implements ClockRestorer: it seeds the epoch/timestamp
// counters after a recovery rebuild (see internal/wal).
func (e *OVH) RestoreClock(epoch, stamp uint64) { e.pub.restore(epoch, stamp) }

// Rebuild implements Rebuilder: a serial recompute pass plus a fresh
// publication, as for the incremental engines.
func (e *OVH) Rebuild() {
	e.recomputeAll()
	e.publish()
}

// Queries implements Engine.
func (e *OVH) Queries() []QueryID { return e.qt.ids() }

// StepStats returns OVH's work counters, summed over its worker arenas: its
// from-scratch expansions count NodesVerified like the incremental
// engines'. Read it between steps.
func (e *OVH) StepStats() StepStats { return e.arenas.stats() }

// SizeBytes implements Engine. OVH needs only the result sets between
// timestamps; what it holds is each monitor's candidate store, the result
// and whatever the last expansion scanned beyond it.
func (e *OVH) SizeBytes() int {
	n := 0
	for _, r := range e.qt.rows {
		n += r.mon.cand.len() * candEntrySize
	}
	return n
}

// Close implements Engine.
func (e *OVH) Close() { e.pool.Close() }
