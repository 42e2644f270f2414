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
	set  *monitorSet // holds the node monitors, and the engine's query table
	seqs *roadnet.Sequences

	// n counts the grouped queries (their rows are in the query table).
	n int
	// seqQ lists the queries on each sequence, by SeqID. It is the grouped
	// side's influence list: a query's influencing intervals never leave its
	// sequence, so an update on an edge concerns at most the queries of that
	// edge's sequence, each of which knows how far along it its last
	// evaluation reached (gmaQuery.influenced).
	seqQ [][]*gmaQuery
	// nodeQ is n.Q, by NodeID (topology edits never add nodes). A node is
	// active exactly while its entry is non-empty, and is then monitored, with
	// the largest k among its members, by its entry of nodeMon (nil otherwise).
	nodeQ   [][]*gmaQuery
	nodeMon []*monitor
	// naiveEval disables the bounded in-sequence walk: evaluations scan the
	// whole sequence and always merge both endpoint NN sets (the GMA-naive
	// ablation, §5's strawman).
	naiveEval bool
	// evalFn is g.evalShard bound once so pool dispatch never allocates.
	evalFn func(worker, i int)
	// affected lists the queries flagged (gmaQuery.mark) for the running
	// step's evaluation stage; empty between steps.
	affected []*gmaQuery
}

// gmaQuery is the per-query state of a grouped query: no expansion tree —
// only the result, the sequence, and how far along it the evaluation
// reached.
type gmaQuery struct {
	id  QueryID
	k   int
	pos roadnet.Position
	seq roadnet.SeqID

	// result is the last evaluation's, copied out of the worker's candidate
	// store into this query's own buffer (rewritten in place).
	result []Neighbor
	kdist  float64

	reachA, reachB bool // whether the walk reached each endpoint

	// The influence region of the last evaluation, in sequence coordinates:
	// the query's edge is seq.Edges[idx], and extA / extB further edges
	// toward EndA / EndB hold a point within kNN_dist. ivOwn is the
	// influencing interval on the query's own edge, ivA / ivB those on the
	// outermost edge of each direction; the edges in between are influencing
	// over their whole length (the walk crossed them to reach the next one).
	idx, extA, extB int32
	ivOwn, ivA, ivB qInterval

	mark bool // in groupLayer.affected
	gone bool // removed; evalShard skips it
}

// qInterval is an influencing interval on an edge, in travel cost from the
// edge's U endpoint (roadnet.CostFromU): exact, like the costs it bounds.
type qInterval struct{ lo, hi float64 }

func (iv qInterval) contains(c float64) bool { return iv.lo <= c && c <= iv.hi }

// influenced reports whether the point at cost c from the U endpoint of its
// sequence's j-th edge — or, with whole, any point of that edge — lies in
// q's influence region.
func (q *gmaQuery) influenced(j int32, c float64, whole bool) bool {
	// The edge is d edges from the query's own; ext edges are influencing
	// in that direction, the last of them over iv.
	d, ext, iv := j-q.idx, int32(0), q.ivOwn
	if d > 0 {
		ext, iv = q.extB, q.ivB
	} else if d < 0 {
		d, ext, iv = -d, q.extA, q.ivA
	}
	return d < ext || (d == ext && (whole || iv.contains(c)))
}

// newGroupLayer decomposes the network into sequences and returns an empty
// layer over set's network.
func newGroupLayer(set *monitorSet, naiveEval bool) *groupLayer {
	g := &groupLayer{
		net:       set.net,
		set:       set,
		seqs:      roadnet.DecomposeSequences(set.net.G),
		nodeQ:     make([][]*gmaQuery, set.net.G.NumNodes()),
		nodeMon:   make([]*monitor, set.net.G.NumNodes()),
		naiveEval: naiveEval,
	}
	g.seqQ = make([][]*gmaQuery, len(g.seqs.Seqs))
	g.evalFn = g.evalShard
	return g
}

// flag puts q among the running step's queries to re-evaluate.
func (g *groupLayer) flag(q *gmaQuery) {
	if !q.mark {
		q.mark = true
		g.affected = append(g.affected, q)
	}
}

// add creates a grouped query (the caller gives it its row) and attaches it
// to its sequence. Within a step the query is only flagged for the evaluation
// stage; outside one the caller evaluates it.
func (g *groupLayer) add(id QueryID, pos roadnet.Position, k int, inStep bool) *gmaQuery {
	if k <= 0 {
		panic("core: query k must be positive")
	}
	q := &gmaQuery{id: id, k: k, pos: pos, kdist: math.Inf(1)}
	g.n++
	g.attach(q, inStep)
	if inStep {
		g.flag(q)
	}
	return q
}

// remove detaches and forgets a grouped query.
func (g *groupLayer) remove(q *gmaQuery, inStep bool) {
	g.detach(q, inStep)
	g.n--
	q.gone = true
}

// move relocates a grouped query within a step: a movement is a deletion
// plus an insertion (Fig. 12 lines 1-4).
func (g *groupLayer) move(q *gmaQuery, pos roadnet.Position) {
	g.detach(q, true)
	q.pos = pos
	g.attach(q, true)
	g.flag(q)
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
// nodes or raising their monitored k as needed. Within a step, the other
// dependents of a node whose monitored set was recomputed are flagged;
// outside one they stay as they are until an update next touches them.
func (g *groupLayer) attach(q *gmaQuery, inStep bool) {
	q.seq, q.idx = g.seqs.ByEdge[q.pos.Edge], g.seqs.EdgeIndex[q.pos.Edge]
	g.seqQ[q.seq] = append(g.seqQ[q.seq], q)
	ends, cnt := g.endpoints(q)
	for _, n := range ends[:cnt] {
		if mon := g.nodeMon[n]; mon == nil {
			g.nodeMon[n] = g.set.register(int32(n), g.nodePosition(n), q.k, true)
		} else if mon.k < q.k {
			g.setNodeK(n, mon, q.k, inStep)
		}
		g.nodeQ[n] = append(g.nodeQ[n], q)
	}
}

// detach removes q from its sequence's bookkeeping, deactivating endpoint
// nodes left without dependent queries and shrinking over-sized monitors.
// The emptied lists keep their capacity for the next activation (query-move
// churn re-activates the same endpoints constantly).
func (g *groupLayer) detach(q *gmaQuery, inStep bool) {
	g.seqQ[q.seq] = dropQuery(g.seqQ[q.seq], q)
	ends, cnt := g.endpoints(q)
	for _, n := range ends[:cnt] {
		qs := dropQuery(g.nodeQ[n], q)
		g.nodeQ[n] = qs
		if len(qs) == 0 {
			g.deactivateNode(n)
			continue
		}
		maxK := 0
		for _, o := range qs {
			maxK = max(maxK, o.k)
		}
		if mon := g.nodeMon[n]; mon.k != maxK {
			g.setNodeK(n, mon, maxK, inStep)
		}
	}
}

// deactivateNode drops the monitor of node n, left without dependents.
func (g *groupLayer) deactivateNode(n graph.NodeID) {
	g.set.unregister(g.nodeMon[n])
	g.nodeMon[n] = nil
}

// dropQuery removes q from qs, which holds it, without keeping the order.
func dropQuery(qs []*gmaQuery, q *gmaQuery) []*gmaQuery {
	last := len(qs) - 1
	qs[slices.Index(qs, q)] = qs[last]
	qs[last] = nil
	return qs[:last]
}

// setNodeK re-targets active node n's monitor to k and recomputes it.
func (g *groupLayer) setNodeK(n graph.NodeID, mon *monitor, k int, inStep bool) {
	mon.setK(k)
	mon.computeInitial(g.set.arena(0))
	if inStep {
		for _, q := range g.nodeQ[n] {
			g.flag(q)
		}
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
	for n, qs := range g.nodeQ {
		if len(qs) > 0 {
			clear(qs)
			g.nodeQ[n] = qs[:0]
			g.deactivateNode(graph.NodeID(n))
		}
	}
}

// redecompose closes a topology phase on the edited, re-frozen network: it
// recomputes the sequences and re-attaches every query — flagged for
// re-evaluation — against the new decomposition. The cost is proportional
// to the query population, not the network — the sequence redecomposition
// itself is the only full-network pass.
func (g *groupLayer) redecompose() {
	g.seqs.Decompose(g.net.G)
	// The per-sequence lists (like the sequence arenas) are emptied in place,
	// so a redecomposition allocates in proportion to the churn, not the
	// network.
	for i, qs := range g.seqQ {
		clear(qs)
		g.seqQ[i] = qs[:0]
	}
	for len(g.seqQ) < len(g.seqs.Seqs) {
		g.seqQ = append(g.seqQ, nil)
	}

	// Re-snap queries stranded on removed edges (the objects' deterministic
	// rule), then re-attach everything to the new sequences, in id order.
	for q := range g.queries {
		if !g.net.G.EdgeAlive(q.pos.Edge) {
			q.pos = resnap(g.net, q.pos)
		}
		g.attach(q, true)
		g.flag(q)
	}
}

// queries yields the grouped queries, ascending by id: the query table's
// rows that hold one.
func (g *groupLayer) queries(yield func(*gmaQuery) bool) {
	for _, r := range g.set.qt.rows {
		if r.grp != nil && !yield(r.grp) {
			return
		}
	}
}

// reevaluate is the grouped half of a step, run after the monitor set has
// maintained the active-node results (Fig. 12 line 5): the queries affected
// by node changes, object updates or edge updates — plus those flagged
// earlier in the step by insertions, moves and topology — are recomputed
// from scratch. changed lists the node monitors whose results changed (only
// node monitors track changes).
func (g *groupLayer) reevaluate(changed []*monitor, u Updates) {
	// Lines 7-8: queries influenced by changed active nodes.
	for _, mon := range changed {
		n := graph.NodeID(mon.id)
		for _, q := range g.nodeQ[n] {
			seq := &g.seqs.Seqs[q.seq]
			if (seq.EndA == n && q.reachA) || (seq.EndB == n && q.reachB) {
				g.flag(q)
			}
		}
	}

	// Lines 9-12: object updates inside influencing intervals. A departure
	// is where the monitor set's routing found the object.
	departed := g.set.departed
	for _, ou := range u.Objects {
		if !ou.Insert {
			if from := departed[0]; from.Edge != graph.NoEdge {
				g.markAt(from.Edge, from.Frac, false)
			}
			departed = departed[1:]
		}
		if !ou.Delete {
			g.markAt(ou.New.Edge, ou.New.Frac, false)
		}
	}

	// Lines 13-15: edge updates.
	for _, eu := range u.Edges {
		g.markAt(eu.Edge, 0, true)
	}

	// Lines 16-17: recompute affected queries from scratch. The
	// evaluations are mutually independent — each reads the frozen network,
	// sequence tables and active-node results and writes only its own query
	// state — so they fan out over the worker pool as they are.
	for w := 0; w < min(g.set.workers, len(g.affected)); w++ {
		g.set.arena(w) // pre-create outside the workers
	}
	g.set.pool.Run(len(g.affected), g.evalFn)
	clear(g.affected) // a removed query must not stay reachable from the buffer
	g.affected = g.affected[:0]
}

// evalShard re-evaluates query g.affected[i], unless the step removed it
// after flagging it, on pool worker wk. Worker w always maps to the set's
// arena w; the set's own shard stage and the evaluations never run
// concurrently.
func (g *groupLayer) evalShard(wk, i int) {
	q := g.affected[i]
	q.mark = false
	if !q.gone {
		g.evaluate(q, g.set.arena(wk))
	}
}

// markAt flags the queries influenced by the point at fraction f of edge e
// or, with whole, by any point of it. An edge removed this timestamp is in
// no sequence and concerns no one: redecompose flagged every query already.
func (g *groupLayer) markAt(e graph.EdgeID, f float64, whole bool) {
	sid := g.seqs.ByEdge[e]
	if sid == roadnet.NoSeq {
		return
	}
	j := g.seqs.EdgeIndex[e]
	c := roadnet.CostFromU(g.net.G.Edge(e), f)
	for _, q := range g.seqQ[sid] {
		if !q.mark && q.influenced(j, c, whole) {
			g.flag(q)
		}
	}
}

// neighborSize is one result entry: a Neighbor's padded 16 bytes.
const neighborSize = 16

// sizeBytes charges each query's result (paper §5: a grouped query keeps
// its k-NN set and nothing of the search behind it — the candidate store an
// evaluation runs in is the worker's, transient like the rest of scratch,
// and not charged) and reach, the sequence and node lists, plus the static
// sequence table (GMA's extra structure). The active-node trees and
// influence lists are the monitor set's.
func (g *groupLayer) sizeBytes() int {
	n := 0
	for q := range g.queries {
		// 64: idx, ext and the three intervals; 8: the seqQ entry.
		n += len(q.result)*neighborSize + 96 + 64 + 8
	}
	for _, qs := range g.nodeQ {
		n += 24 + len(qs)*8
	}
	n += len(g.seqs.Seqs) * (48 + 24) // the sequence and its seqQ header
	n += g.net.G.NumEdges() * 8       // ByEdge / EdgeIndex
	return n
}
