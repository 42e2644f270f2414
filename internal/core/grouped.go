package core

import (
	"math"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// groupLayer is the shared-execution state behind the queries placed in
// Grouped mode (paper §5): queries are grouped by the sequence (maximal
// path between intersections) containing them; the k-NN sets of the
// sequence endpoints ("active nodes") are maintained as node monitors in
// the engine's one monitor set, and each query is answered from the objects
// inside its sequence plus the endpoint NN sets (Lemma 1). The layer exists
// only while some query is grouped: an engine whose queries are all direct
// never decomposes the network into sequences.
type groupLayer struct {
	net  *roadnet.Network
	set  *monitorSet // holds the node monitors, under nodeKey
	seqs *roadnet.Sequences

	queries map[QueryID]*gmaQuery
	// qIL is the query-side influence table: for each sequence edge, the
	// queries influenced by it together with the influencing interval.
	qIL []map[QueryID]qInterval
	// nodeQ is n.Q with each member's k (to maintain n.k = max q.k). A node
	// is active exactly while its entry is non-empty.
	nodeQ map[graph.NodeID]map[QueryID]int
	// naiveEval disables the bounded in-sequence walk: evaluations scan the
	// whole sequence and always merge both endpoint NN sets (the GMA-naive
	// ablation, §5's strawman).
	naiveEval bool
	// evalFn is g.evalShard bound once so pool dispatch never allocates.
	evalFn func(worker, i int)
	// evalIDs / evalBufs are the parallel evaluation stage's shard list
	// and per-shard qIL op buffers, retained across steps to amortize
	// allocations (mirroring the monitor set's work list).
	evalIDs  []QueryID
	evalBufs [][]qilOp
	// affected is the per-step dirty-query set, reused across steps and
	// empty between them.
	affected map[QueryID]bool
}

// gmaQuery is the per-query state of a grouped query: no expansion tree —
// only the result, the sequence, and how far along it the evaluation
// reached.
type gmaQuery struct {
	id   QueryID
	k    int
	pos  roadnet.Position
	seq  roadnet.SeqID
	cand candStore

	result []Neighbor
	kdist  float64

	reachA, reachB bool    // whether the walk reached each endpoint
	distA, distB   float64 // arc distance to the endpoints when reached

	affEdges map[graph.EdgeID]qInterval
}

// qInterval is an influencing interval in edge-fraction space.
type qInterval struct{ lo, hi float64 }

func (iv qInterval) contains(f float64) bool {
	return f >= iv.lo-distEps && f <= iv.hi+distEps
}

// union widens iv to cover o (conservative for disjoint pieces:
// over-inclusion only costs spurious re-evaluations, never correctness).
func (iv qInterval) union(o qInterval) qInterval {
	if o.lo < iv.lo {
		iv.lo = o.lo
	}
	if o.hi > iv.hi {
		iv.hi = o.hi
	}
	return iv
}

// newGroupLayer decomposes the network into sequences and returns an empty
// layer over set's network.
func newGroupLayer(set *monitorSet, naiveEval bool) *groupLayer {
	g := &groupLayer{
		net:       set.net,
		set:       set,
		seqs:      roadnet.DecomposeSequences(set.net.G),
		queries:   make(map[QueryID]*gmaQuery),
		qIL:       make([]map[QueryID]qInterval, set.net.G.NumEdges()),
		nodeQ:     make(map[graph.NodeID]map[QueryID]int),
		naiveEval: naiveEval,
		affected:  make(map[QueryID]bool),
	}
	g.evalFn = g.evalShard
	return g
}

// dirty returns the set that collects queries to re-evaluate: the step's
// affected set within a step, nil outside one — a node monitor recomputed
// by an out-of-step attach or detach leaves its other dependents as they
// are until an update next touches them.
func (g *groupLayer) dirty(inStep bool) map[QueryID]bool {
	if inStep {
		return g.affected
	}
	return nil
}

// add installs a grouped query and attaches it to its sequence. Within a
// step the query is only flagged for the evaluation stage; outside one the
// caller evaluates it.
func (g *groupLayer) add(id QueryID, pos roadnet.Position, k int, inStep bool) *gmaQuery {
	if k <= 0 {
		panic("core: query k must be positive")
	}
	q := &gmaQuery{
		id: id, k: k, pos: pos,
		kdist:    math.Inf(1),
		affEdges: make(map[graph.EdgeID]qInterval, 4),
	}
	g.queries[id] = q
	g.attach(q, g.dirty(inStep))
	if inStep {
		g.affected[id] = true
	}
	return q
}

// remove detaches and forgets a grouped query.
func (g *groupLayer) remove(q *gmaQuery, inStep bool) {
	g.detach(q, g.dirty(inStep))
	delete(g.queries, q.id)
	delete(g.affected, q.id)
}

// move relocates a grouped query within a step: a movement is a deletion
// plus an insertion (Fig. 12 lines 1-4).
func (g *groupLayer) move(q *gmaQuery, pos roadnet.Position) {
	g.detach(q, g.affected)
	q.pos = pos
	g.attach(q, g.affected)
	g.affected[q.id] = true
}

// endpoints returns the distinct endpoints of q's sequence that need to be
// active for q, and how many there are: endpoints with degree 1 (terminal
// nodes) are skipped, as nothing lies beyond them (paper §5).
func (g *groupLayer) endpoints(q *gmaQuery) (ends [2]graph.NodeID, n int) {
	seq := &g.seqs.Seqs[q.seq]
	if g.net.G.Degree(seq.EndA) > 1 {
		ends[n] = seq.EndA
		n++
	}
	if seq.EndB != seq.EndA && g.net.G.Degree(seq.EndB) > 1 {
		ends[n] = seq.EndB
		n++
	}
	return ends, n
}

// attach registers q in its sequence's bookkeeping, activating endpoint
// nodes or raising their monitored k as needed. Nodes whose monitored set
// was (re)computed have their dependent queries added to affected.
func (g *groupLayer) attach(q *gmaQuery, affected map[QueryID]bool) {
	q.seq = g.seqs.ByEdge[q.pos.Edge]
	ends, cnt := g.endpoints(q)
	for _, n := range ends[:cnt] {
		qs := g.nodeQ[n]
		if qs == nil {
			qs = make(map[QueryID]int, 2)
			g.nodeQ[n] = qs
		}
		qs[q.id] = q.k
		if mon, active := g.set.mons[nodeKey(n)]; !active {
			g.set.register(nodeKey(n), g.nodePosition(n), q.k, true)
		} else if mon.k < q.k {
			mon.setK(q.k)
			mon.computeInitial(g.set.arena(0))
			g.markNodeQueries(n, affected)
		}
	}
}

// detach removes q from its sequence's bookkeeping, deactivating endpoint
// nodes left without dependent queries and shrinking over-sized monitors.
func (g *groupLayer) detach(q *gmaQuery, affected map[QueryID]bool) {
	for eid := range q.affEdges {
		delete(g.qIL[eid], q.id)
	}
	clear(q.affEdges)
	ends, cnt := g.endpoints(q)
	for _, n := range ends[:cnt] {
		qs := g.nodeQ[n]
		delete(qs, q.id)
		if len(qs) == 0 {
			// The emptied map stays in nodeQ for the next activation of
			// this node (query-move churn re-activates the same endpoints
			// constantly); sizeBytes skips empty entries.
			g.set.unregister(nodeKey(n))
			continue
		}
		maxK := 0
		for _, k := range qs {
			if k > maxK {
				maxK = k
			}
		}
		if mon := g.set.mons[nodeKey(n)]; mon.k != maxK {
			mon.setK(maxK)
			mon.computeInitial(g.set.arena(0))
			g.markNodeQueries(n, affected)
		}
	}
}

func (g *groupLayer) markNodeQueries(n graph.NodeID, affected map[QueryID]bool) {
	if affected == nil {
		return
	}
	for qid := range g.nodeQ[n] {
		affected[qid] = true
	}
}

// nodePosition expresses node n as a Position on one of its incident edges.
func (g *groupLayer) nodePosition(n graph.NodeID) roadnet.Position {
	eid := g.net.G.Incident(n)[0]
	if g.net.G.Edge(eid).U == n {
		return roadnet.Position{Edge: eid, Frac: 0}
	}
	return roadnet.Position{Edge: eid, Frac: 1}
}

// deactivate unregisters every active node (ascending id, so the monitor
// free-list state is replay-deterministic) and drops all query-side
// registrations. It opens a topology phase, before the network is edited:
// a single edit can split, merge or re-thread sequences network-wide
// (sequence ids shift wholesale), so the group-level bookkeeping is rebuilt
// from scratch by redecompose once the edits are in — and with no node
// monitor registered in between, the set's influence-list marking of the
// edits only ever sees direct monitors.
func (g *groupLayer) deactivate() {
	var nids []graph.NodeID
	for n, qs := range g.nodeQ {
		if len(qs) > 0 {
			nids = append(nids, n)
			clear(qs)
		}
	}
	slices.Sort(nids)
	for _, n := range nids {
		g.set.unregister(nodeKey(n))
	}
}

// redecompose closes a topology phase on the edited, re-frozen network: it
// recomputes the sequences and re-attaches every query — flagged for
// re-evaluation — against the new decomposition. The cost is proportional
// to the query population, not the network — the sequence redecomposition
// itself is the only full-network pass.
func (g *groupLayer) redecompose() {
	// Clear the query influence table in place: the per-edge maps (and the
	// sequence arenas below) are reused, so a redecomposition allocates in
	// proportion to the churn, not the network.
	for i := range g.qIL {
		clear(g.qIL[i])
	}
	for len(g.qIL) < g.net.G.NumEdges() {
		g.qIL = append(g.qIL, nil)
	}
	g.seqs.Decompose(g.net.G)

	// Re-snap queries stranded on removed edges (the objects' deterministic
	// rule), then re-attach everything to the new sequences.
	for _, id := range g.sortedIDs() {
		q := g.queries[id]
		if !g.net.G.EdgeAlive(q.pos.Edge) {
			q.pos = resnap(g.net, q.pos)
		}
		clear(q.affEdges) // the table side went with qIL
		g.attach(q, g.affected)
		g.affected[id] = true
	}
}

func (g *groupLayer) sortedIDs() []QueryID {
	ids := make([]QueryID, 0, len(g.queries))
	for id := range g.queries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// reevaluate is the grouped half of a step, run after the monitor set has
// maintained the active-node results (Fig. 12 line 5): the queries affected
// by node changes, object updates or edge updates — plus those flagged
// earlier in the step by insertions, moves and topology — are recomputed
// from scratch.
func (g *groupLayer) reevaluate(changedNodes map[monKey]bool, u Updates) {
	affected := g.affected

	// Lines 7-8: queries influenced by changed active nodes (only node
	// monitors track changes, so every key is a node's).
	for key := range changedNodes {
		n := graph.NodeID(key - nodeKeyBase)
		for qid := range g.nodeQ[n] {
			q := g.queries[qid]
			seq := &g.seqs.Seqs[q.seq]
			if (seq.EndA == n && q.reachA) || (seq.EndB == n && q.reachB) {
				affected[qid] = true
			}
		}
	}

	// Lines 9-12: object updates inside influencing intervals.
	for _, ou := range u.Objects {
		if !ou.Insert {
			g.markPos(ou.Old, affected)
		}
		if !ou.Delete {
			g.markPos(ou.New, affected)
		}
	}

	// Lines 13-15: edge updates.
	for _, eu := range u.Edges {
		for qid := range g.qIL[eu.Edge] {
			affected[qid] = true
		}
	}

	// Lines 16-17: recompute affected queries from scratch. The
	// evaluations are mutually independent — each reads the frozen network,
	// sequence tables and active-node results and writes only its own query
	// state — so they fan out over the worker pool, with the shared
	// query-side influence table updated from per-shard op buffers in the
	// merge stage (ascending query order).
	ids := g.evalIDs[:0]
	for qid := range affected {
		if _, ok := g.queries[qid]; ok {
			ids = append(ids, qid)
		}
	}
	clear(affected)
	slices.Sort(ids)
	g.evalIDs = ids
	if g.set.workers > 1 && len(ids) > 1 {
		for len(g.evalBufs) < len(ids) {
			g.evalBufs = append(g.evalBufs, nil)
		}
		bufs := g.evalBufs[:len(ids)]
		for i := range bufs {
			bufs[i] = bufs[i][:0]
		}
		for w := 0; w < min(g.set.workers, len(ids)); w++ {
			g.set.arena(w) // pre-create outside the workers
		}
		g.set.pool.Run(len(ids), g.evalFn)
		for _, buf := range bufs {
			for _, op := range buf {
				g.applyQILOp(op)
			}
		}
	} else {
		sc := g.set.arena(0)
		for _, qid := range ids {
			g.evaluate(g.queries[qid], sc)
		}
	}
}

// evalShard re-evaluates query g.evalIDs[i] on pool worker wk, deferring
// its query-side influence registrations into the shard buffer. Worker w
// always maps to the set's arena w; the set's own shard stage and the
// evaluations never run concurrently.
func (g *groupLayer) evalShard(wk, i int) {
	g.evaluateInto(g.queries[g.evalIDs[i]], &g.evalBufs[i], g.set.arena(wk))
}

// qilOp is a deferred mutation of the query-side influence table qIL,
// emitted by a parallel evaluation shard and applied in the merge stage.
type qilOp struct {
	del  bool
	edge graph.EdgeID
	q    QueryID
	iv   qInterval
}

func (g *groupLayer) applyQILOp(op qilOp) {
	if op.del {
		delete(g.qIL[op.edge], op.q)
		return
	}
	m := g.qIL[op.edge]
	if m == nil {
		m = make(map[QueryID]qInterval, 2)
		g.qIL[op.edge] = m
	}
	m[op.q] = op.iv
}

// markPos flags the queries whose influencing interval on pos's edge
// contains pos.
func (g *groupLayer) markPos(pos roadnet.Position, affected map[QueryID]bool) {
	for qid, iv := range g.qIL[pos.Edge] {
		if iv.contains(pos.Frac) {
			affected[qid] = true
		}
	}
}

// sizeBytes charges the per-query candidates — the result and whatever the
// last evaluation left in the store beyond it, at monitor.sizeBytes' nominal
// cost per entry — and sequence-interval registrations, plus the static
// sequence table (paper §5: GMA's extra structure). The active-node trees
// and influence lists are the monitor set's.
func (g *groupLayer) sizeBytes() int {
	n := 0
	for _, q := range g.queries {
		n += q.cand.len()*candEntrySize + len(q.affEdges)*(4+16+16) + 96
	}
	for _, m := range g.qIL {
		n += len(m) * (4 + 16 + 16)
	}
	for _, qs := range g.nodeQ {
		if len(qs) > 0 { // emptied entries are pooled, not live state
			n += 16 + len(qs)*8
		}
	}
	n += len(g.seqs.Seqs) * 48
	n += g.net.G.NumEdges() * 8 // ByEdge / EdgeIndex
	return n
}
