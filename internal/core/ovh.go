package core

import (
	"maps"
	"runtime"
	"slices"

	"roadknn/internal/pool"
	"roadknn/internal/roadnet"
)

// OVH is the overhaul baseline of the paper's evaluation (§6): every
// timestamp it applies the updates and recomputes every query from scratch
// with the Figure-2 algorithm. Figure 2 includes the influence-list writes
// (lines 10 and 28), so OVH maintains the edge table's influence lists like
// the original — it just never exploits them.
type OVH struct {
	net     *roadnet.Network
	il      *ilTable
	mons    map[QueryID]*monitor
	workers int
	// pool is the persistent worker pool of the recompute stage; recFn is
	// e.recomputeShard bound once so pool dispatch never allocates.
	pool  *pool.Pool
	recFn func(worker, i int)
	pub   publisher
	// arenas holds the per-worker scratch arenas for the from-scratch
	// searches (arena 0 serves the serial paths).
	arenas arenaPool
	// stepIDs / stepBufs are the parallel recompute stage's shard list and
	// per-shard influence-op buffers, retained across steps to amortize
	// allocations.
	stepIDs  []QueryID
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
		mons:    make(map[QueryID]*monitor),
		workers: o.workers(),
	}
	e.pool = pool.New(e.workers)
	e.recFn = e.recomputeShard
	e.pub.init(o, e.resultOf)
	runtime.AddCleanup(e, func(p *pool.Pool) { p.Close() }, e.pool)
	return e
}

// Name implements Engine.
func (e *OVH) Name() string { return "OVH" }

// Network implements Engine.
func (e *OVH) Network() *roadnet.Network { return e.net }

// Register implements Engine.
func (e *OVH) Register(id QueryID, pos roadnet.Position, k int) {
	if _, dup := e.mons[id]; dup {
		panic("core: query already registered")
	}
	m := newMonitor(e.net, e.il, directKey(id), pos, k)
	e.mons[id] = m
	m.computeInitial(e.arena(0))
	e.publish()
}

// Unregister implements Engine.
func (e *OVH) Unregister(id QueryID) {
	e.unregister(id)
	e.publish()
}

func (e *OVH) unregister(id QueryID) {
	if m, ok := e.mons[id]; ok {
		m.clearIL()
		delete(e.mons, id)
	}
}

// applyTopology applies one timestamp's edge edits. OVH recomputes every
// query from scratch each Step, so beyond the network mutation itself only
// the influence table's edge range and the positions of queries stranded on
// removed edges need attention.
func (e *OVH) applyTopology(topo []TopologyUpdate) {
	g := e.net.G
	applyTopologyOps(e.net, topo, nil)
	g.Freeze()
	e.il.grow(g.NumEdges())
	for _, m := range e.mons {
		if !g.EdgeAlive(m.pos.Edge) {
			m.pos = resnap(e.net, m.pos)
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
	// Terminations and moves in batch order, installations after them all
	// (the rule of Updates).
	for _, qu := range u.Queries {
		switch {
		case qu.Delete:
			e.unregister(qu.ID)
		case qu.Insert:
		default:
			if m, ok := e.mons[qu.ID]; ok {
				m.pos = qu.New
			}
		}
	}
	for _, qu := range u.Queries {
		if qu.Insert {
			e.mons[qu.ID] = newMonitor(e.net, e.il, directKey(qu.ID), qu.New, qu.K)
		}
	}
	// Recompute every query from scratch. Queries are independent here —
	// each reads the (now final) shared network and writes only its own
	// monitor — so the per-query searches fan out over the worker pool,
	// with influence-table writes deferred into per-shard buffers and
	// merged in ascending query order.
	ids := e.stepIDs[:0]
	for id := range e.mons {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.stepIDs = ids
	if e.workers > 1 && len(ids) > 1 {
		for len(e.stepBufs) < len(ids) {
			e.stepBufs = append(e.stepBufs, nil)
		}
		bufs := e.stepBufs[:len(ids)]
		for i := range bufs {
			bufs[i] = bufs[i][:0]
		}
		for w := 0; w < min(e.workers, len(ids)); w++ {
			e.arena(w) // pre-create outside the workers
		}
		e.pool.Run(len(ids), e.recFn)
		for i, id := range ids {
			m := e.mons[id]
			for _, op := range bufs[i] {
				if op.add {
					e.il.add(op.edge, m)
				} else {
					e.il.remove(op.edge, m)
				}
			}
		}
	} else {
		sc := e.arena(0)
		for _, id := range ids {
			e.mons[id].computeInitial(sc)
		}
	}
	e.pub.tick()
	e.publish()
}

// recomputeShard recomputes query e.stepIDs[i] from scratch on pool worker
// wk, deferring its influence-table writes into the shard buffer.
func (e *OVH) recomputeShard(wk, i int) {
	m := e.mons[e.stepIDs[i]]
	m.ilDefer = &e.stepBufs[i]
	m.computeInitial(e.arena(wk))
	m.ilDefer = nil
}

// resultOf reads the engine-side current result of one query.
func (e *OVH) resultOf(id QueryID) []Neighbor {
	if m, ok := e.mons[id]; ok {
		return m.result
	}
	return nil
}

// publish installs a fresh snapshot over the registered queries (no-op
// unless the engine is serving).
func (e *OVH) publish() { e.pub.publishSet(maps.Keys(e.mons)) }

// Result implements Engine.
func (e *OVH) Result(id QueryID) []Neighbor {
	if snap := e.pub.snapshot(); snap != nil {
		return snap.Result(id)
	}
	return e.resultOf(id)
}

// Snapshot implements Engine.
func (e *OVH) Snapshot() *Snapshot { return e.pub.snapshot() }

// RestoreClock implements ClockRestorer: it seeds the epoch/timestamp
// counters after a recovery rebuild (see internal/wal).
func (e *OVH) RestoreClock(epoch, stamp uint64) { e.pub.restore(epoch, stamp) }

// Rebuild implements Rebuilder. OVH already recomputes every query from
// scratch on each Step, so its monitor state is canonical by construction;
// a serial recompute pass plus a fresh publication keeps the checkpoint
// contract uniform across engines.
func (e *OVH) Rebuild() {
	ids := make([]QueryID, 0, len(e.mons))
	for id := range e.mons {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sc := e.arena(0)
	for _, id := range ids {
		e.mons[id].computeInitial(sc)
	}
	e.publish()
}

// Queries implements Engine.
func (e *OVH) Queries() []QueryID {
	out := make([]QueryID, 0, len(e.mons))
	for id := range e.mons {
		out = append(out, id)
	}
	return out
}

// SizeBytes implements Engine. OVH needs only the result sets between
// timestamps; what it holds is each monitor's candidate store, the result
// and whatever the last expansion scanned beyond it.
func (e *OVH) SizeBytes() int {
	n := 0
	for _, m := range e.mons {
		n += m.cand.len() * candEntrySize
	}
	return n
}

// Close implements Engine.
func (e *OVH) Close() { e.pool.Close() }
