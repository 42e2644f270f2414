// Package graph defines the road-network graph: nodes with coordinates and
// weighted bidirectional edges with adjacency (the paper's setting).
//
// The package also provides a textbook Dijkstra implementation that the rest
// of the repository uses as a correctness oracle for the incremental
// algorithms.
package graph

import (
	"fmt"
	"math"
	"sort"

	"roadknn/internal/geom"
	"roadknn/internal/pqueue"
)

// NodeID identifies a node. IDs are dense indices assigned by AddNode.
type NodeID int32

// EdgeID identifies an edge. IDs are dense indices assigned by AddEdge;
// removing an edge tombstones its id, and the id is reused (LIFO) by a
// later AddEdge so the id space — and every edge-indexed array above the
// graph — stays dense under topology churn.
type EdgeID int32

// NoNode is the sentinel for "no node" (e.g. the root of a shortest-path tree).
const NoNode NodeID = -1

// NoEdge is the sentinel for "no edge".
const NoEdge EdgeID = -1

// Node is a network vertex placed in the 2-D workspace.
type Node struct {
	ID NodeID
	Pt geom.Point
}

// Edge is a weighted road segment between two nodes. The weight models
// travel cost (e.g. time or length) and may change over time; Length is the
// immutable geometric length used for positioning objects along the edge.
type Edge struct {
	ID     EdgeID
	U, V   NodeID
	W      float64 // current weight (travel cost): a whole number of quanta, >= Quantum
	Length float64 // Euclidean length of the segment, fixed at creation
}

// Quantum is the unit of travel cost. AddEdge and SetWeight round every
// weight to a whole number of quanta, and roadnet rounds a position's offset
// along its edge the same way, so every path cost is an integer multiple of
// a power of two. Sums and differences of such values are exact in float64
// below 2^53 quanta: a shortest-path distance is then the same number
// whichever order it was summed in, which is what makes an incrementally
// maintained result equal one computed from scratch, bit for bit.
const Quantum = 1.0 / (1 << 20)

// MaxWeight is the largest weight CheckWeight accepts: 2^40 quanta, so a
// path of 8,192 edges at the ceiling still sums exactly.
const MaxWeight = 1 << 20

// Quantise rounds x to the nearest whole number of quanta, a half to even:
// one branch-free instruction where the CPU has it, which matters because
// the expansions round a position cost for every object they scan.
func Quantise(x float64) float64 { return math.RoundToEven(x/Quantum) * Quantum }

// QuantiseWeight is the weight a graph stores for w: rounded to the
// quantum, and at least one quantum.
func QuantiseWeight(w float64) float64 { return max(Quantise(w), Quantum) }

// Other returns the endpoint of e opposite to n.
// It panics if n is not an endpoint of e.
func (e *Edge) Other(n NodeID) NodeID {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", n, e.ID))
}

// HasEndpoint reports whether n is one of e's endpoints.
func (e *Edge) HasEndpoint(n NodeID) bool { return n == e.U || n == e.V }

// Graph is a mutable road network. The zero value is an empty graph ready
// for use. Graph is not safe for concurrent mutation.
//
// Adjacency lives in one of two physical layouts. While the graph is being
// built (AddNode/AddEdge), a slice-of-slices builder holds per-node edge
// lists. Freeze compacts them into a CSR (compressed sparse row) layout —
// one flat []EdgeID plus per-node offset/length pairs — which halves
// pointer chasing on the traversal hot path and keeps every Incident call a
// contiguous slice of one shared array.
//
// Topology mutations on a frozen graph do NOT thaw it back. They
// accumulate in a small delta overlay — tombstone flags for removed edges,
// a pending-insert list, and the set of touched nodes — that overlay-aware
// traversal (ForEachIncident, Dijkstra) consults on the fly. The next
// Freeze merges the overlay in place: only the touched nodes' rows are
// recompacted (shrinks rewrite in place, growths relocate to the tail of
// the shared array), so the cost is proportional to the churn, not the
// graph. Full recompaction happens only when relocation gaps exceed the
// live volume, keeping the amortized cost churn-proportional too.
//
// Every frozen row is sorted ascending by EdgeID. This canonical order
// makes traversal order — and therefore every engine result downstream —
// a function of the logical edge set alone, independent of the physical
// history of patches, which is what lets WAL replay and replication
// reproduce byte-identical state from a different freeze schedule.
//
// Concurrent readers (the engines' parallel shard workers) must not race
// with the lazy freeze: apply mutations and call Freeze (or wrap the graph
// in roadnet.NewNetwork, which freezes) before sharing it.
type Graph struct {
	nodes []Node
	edges []Edge
	adj   [][]EdgeID // builder adjacency; nil while frozen

	// CSR adjacency, authoritative while frozen: the edges incident to
	// node n are csrAdj[csrOff[n] : csrOff[n]+csrLen[n]]. Rows may be
	// separated by relocation gaps; csrLive counts live entries.
	csrOff  []int32
	csrLen  []int32
	csrAdj  []EdgeID
	csrLive int
	frozen  bool

	// Delta overlay, populated by mutations on a frozen graph and drained
	// by the next Freeze.
	dead      []bool   // tombstones, indexed by EdgeID
	free      []EdgeID // LIFO freelist of tombstoned ids
	pendAdd   []EdgeID // edges inserted since the last freeze
	pendStamp []uint32 // pendStamp[e] == pendEpoch ⇔ e ∈ pendAdd
	pendEpoch uint32
	dirty     []NodeID // nodes whose rows the overlay touches
	dirtySet  []bool

	// Reusable merge scratch (steady-state patching allocates nothing).
	scratchRow []EdgeID
	scratchNE  []nodeEdge
}

type nodeEdge struct {
	n NodeID
	e EdgeID
}

// New returns an empty graph with capacity hints.
func New(nodeHint, edgeHint int) *Graph {
	return &Graph{
		nodes:     make([]Node, 0, nodeHint),
		edges:     make([]Edge, 0, edgeHint),
		adj:       make([][]EdgeID, 0, nodeHint),
		pendEpoch: 1,
	}
}

// Overlay reports whether un-merged topology mutations are pending (the
// next Freeze has work to do).
func (g *Graph) Overlay() bool { return len(g.dirty) > 0 }

// Freeze compacts the adjacency into the CSR layout. On a freshly built
// graph it performs the full O(V+E) compaction once; afterwards it merges
// the delta overlay incrementally, touching only the rows of mutated
// nodes. It is idempotent and O(1) when nothing is pending.
func (g *Graph) Freeze() {
	if g.frozen {
		if len(g.dirty) > 0 {
			g.mergeOverlay()
		}
		return
	}
	g.coldFreeze()
}

// coldFreeze performs the initial full compaction from the builder layout.
func (g *Graph) coldFreeze() {
	n := len(g.nodes)
	if cap(g.csrOff) < n {
		g.csrOff = make([]int32, n)
		g.csrLen = make([]int32, n)
	} else {
		g.csrOff = g.csrOff[:n]
		g.csrLen = g.csrLen[:n]
	}
	live := 0
	for i := range g.adj {
		live += len(g.adj[i])
	}
	if cap(g.csrAdj) < live {
		g.csrAdj = make([]EdgeID, live)
	} else {
		g.csrAdj = g.csrAdj[:live]
	}
	off := int32(0)
	for i := range g.nodes {
		row := g.csrAdj[off : int(off)+len(g.adj[i])]
		copy(row, g.adj[i])
		// Canonical invariant: frozen rows ascend by EdgeID. Builder rows
		// already do unless freelist reuse interleaved; sorting a sorted
		// row is near-free.
		sortRow(row)
		g.csrOff[i] = off
		g.csrLen[i] = int32(len(row))
		off += int32(len(row))
	}
	g.csrLive = live
	g.adj = nil
	g.frozen = true
	g.clearOverlay()
}

// mergeOverlay is the incremental freeze: a single pass over the touched
// nodes, rewriting only their rows.
func (g *Graph) mergeOverlay() {
	// Deterministic merge order (and therefore deterministic physical
	// layout for a given mutation sequence).
	sort.Slice(g.dirty, func(i, j int) bool { return g.dirty[i] < g.dirty[j] })

	// Group pending inserts by endpoint so each touched node finds its
	// additions by binary search instead of rescanning the whole list.
	ne := g.scratchNE[:0]
	for _, e := range g.pendAdd {
		if g.dead[e] {
			continue
		}
		ne = append(ne, nodeEdge{g.edges[e].U, e}, nodeEdge{g.edges[e].V, e})
	}
	sort.Slice(ne, func(i, j int) bool {
		if ne[i].n != ne[j].n {
			return ne[i].n < ne[j].n
		}
		return ne[i].e < ne[j].e
	})
	g.scratchNE = ne

	for _, n := range g.dirty {
		if !g.dirtySet[n] {
			continue // AddNode marked it twice, or already handled
		}
		g.dirtySet[n] = false
		old := g.csrAdj[g.csrOff[n] : g.csrOff[n]+g.csrLen[n]]
		merged := g.scratchRow[:0]
		for _, e := range old {
			// Tombstoned entries drop out; id reuse can also re-point an
			// edge at different endpoints, or re-insert it pending — both
			// are filtered here and re-merged from the pending list below.
			if g.dead[e] || !g.edges[e].HasEndpoint(n) || g.pendStamp[e] == g.pendEpoch {
				continue
			}
			merged = append(merged, e)
		}
		// Pending inserts incident to n, already id-sorted within the group.
		lo := sort.Search(len(ne), func(i int) bool { return ne[i].n >= n })
		for i := lo; i < len(ne) && ne[i].n == n; i++ {
			merged = append(merged, ne[i].e)
		}
		sortRow(merged)
		g.scratchRow = merged

		oldLen := int(g.csrLen[n])
		if len(merged) <= oldLen {
			copy(g.csrAdj[g.csrOff[n]:], merged)
		} else {
			// Row grew: relocate it to the tail, leaving a gap behind.
			g.csrOff[n] = int32(len(g.csrAdj))
			g.csrAdj = append(g.csrAdj, merged...)
		}
		g.csrLen[n] = int32(len(merged))
		g.csrLive += len(merged) - oldLen
	}
	g.dirty = g.dirty[:0]
	g.pendAdd = g.pendAdd[:0]
	g.pendEpoch++

	// Amortized bound on relocation gaps: when dead space exceeds the live
	// volume, recompact everything once.
	if len(g.csrAdj) > 2*g.csrLive+64 {
		g.Compact()
	}
}

// Compact rewrites the CSR arrays tightly (no relocation gaps), preserving
// the canonical row order. Freeze calls it automatically when accumulated
// gaps exceed the live volume; it is exported for benchmarks that want to
// compare a full recompaction against the incremental merge.
func (g *Graph) Compact() {
	g.Freeze()
	tight := make([]EdgeID, 0, g.csrLive)
	for i := range g.nodes {
		row := g.csrAdj[g.csrOff[i] : g.csrOff[i]+g.csrLen[i]]
		g.csrOff[i] = int32(len(tight))
		tight = append(tight, row...)
	}
	g.csrAdj = tight
}

// clearOverlay resets the overlay bookkeeping (rows are merged).
func (g *Graph) clearOverlay() {
	for _, n := range g.dirty {
		g.dirtySet[n] = false
	}
	g.dirty = g.dirty[:0]
	g.pendAdd = g.pendAdd[:0]
	g.pendEpoch++
}

func (g *Graph) markDirty(n NodeID) {
	if int(n) >= len(g.dirtySet) {
		grown := make([]bool, len(g.nodes))
		copy(grown, g.dirtySet)
		g.dirtySet = grown
	}
	if !g.dirtySet[n] {
		g.dirtySet[n] = true
		g.dirty = append(g.dirty, n)
	}
}

// AddNode inserts a node at pt and returns its id. It works in both
// layouts: on a frozen graph the new node starts with an empty row.
func (g *Graph) AddNode(pt geom.Point) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pt: pt})
	if g.frozen {
		g.csrOff = append(g.csrOff, int32(len(g.csrAdj)))
		g.csrLen = append(g.csrLen, 0)
		g.dirtySet = append(g.dirtySet, false)
	} else {
		g.adj = append(g.adj, nil)
	}
	return id
}

// AddEdge inserts a bidirectional edge between u and v with weight w and
// returns its id. The weight is stored quantised (see Quantum); the
// geometric length is the Euclidean distance between the endpoints. It
// panics with CheckEdge's error on an edge the graph cannot hold.
//
// On a frozen graph the insert lands in the delta overlay (visible to
// ForEachIncident/Dijkstra immediately) and is merged into the CSR rows by
// the next Freeze; the id of the most recently removed edge is reused.
func (g *Graph) AddEdge(u, v NodeID, w float64) EdgeID {
	if err := CheckEdge(len(g.nodes), u, v, w); err != nil {
		panic("graph: AddEdge: " + err.Error())
	}
	var id EdgeID
	if n := len(g.free); n > 0 {
		id = g.free[n-1]
		g.free = g.free[:n-1]
		g.dead[id] = false
	} else {
		id = EdgeID(len(g.edges))
		g.edges = append(g.edges, Edge{})
		g.dead = append(g.dead, false)
		g.pendStamp = append(g.pendStamp, 0)
	}
	g.edges[id] = Edge{ID: id, U: u, V: v, W: QuantiseWeight(w), Length: g.nodes[u].Pt.Dist(g.nodes[v].Pt)}
	if g.frozen {
		g.pendAdd = append(g.pendAdd, id)
		g.pendStamp[id] = g.pendEpoch
		g.markDirty(u)
		g.markDirty(v)
	} else {
		g.adj[u] = append(g.adj[u], id)
		g.adj[v] = append(g.adj[v], id)
	}
	return id
}

// RemoveEdge tombstones edge id: traversal stops seeing it immediately,
// the next Freeze drops it from its endpoints' rows, and the id is reused
// by the next AddEdge. Geometry of the tombstoned edge (Edge, Segment)
// stays readable until the id is reused, so callers can re-snap entities
// that lived on it. Removing an invalid or already-removed edge panics.
func (g *Graph) RemoveEdge(id EdgeID) {
	if id < 0 || int(id) >= len(g.edges) || g.dead[id] {
		panic(fmt.Sprintf("graph: RemoveEdge of invalid or removed edge %d", id))
	}
	e := &g.edges[id]
	if g.frozen {
		if g.pendStamp[id] == g.pendEpoch {
			// Inserted and removed within one overlay window: cancel the
			// pending insert so a reuse of the id cannot duplicate it.
			for i, p := range g.pendAdd {
				if p == id {
					g.pendAdd = append(g.pendAdd[:i], g.pendAdd[i+1:]...)
					break
				}
			}
			g.pendStamp[id] = 0
		}
		g.markDirty(e.U)
		g.markDirty(e.V)
	} else {
		removeFromRow(&g.adj[e.U], id)
		removeFromRow(&g.adj[e.V], id)
	}
	g.dead[id] = true
	g.free = append(g.free, id)
}

func removeFromRow(row *[]EdgeID, id EdgeID) {
	r := *row
	for i, e := range r {
		if e == id {
			*row = append(r[:i], r[i+1:]...)
			return
		}
	}
}

// CheckEdge returns an error unless an edge u-v of weight w can join a graph
// of nodes nodes: both endpoints exist, they differ, and the weight passes
// CheckWeight. Every path that adds an edge from input checks it here.
func CheckEdge(nodes int, u, v NodeID, w float64) error {
	if u < 0 || int(u) >= nodes || v < 0 || int(v) >= nodes {
		return fmt.Errorf("node out of range [0,%d): %d-%d", nodes, u, v)
	}
	if u == v {
		return fmt.Errorf("self-loop %d-%d", u, v)
	}
	return CheckWeight(w)
}

// CheckWeight returns an error unless w is a usable edge weight: finite,
// positive and at most MaxWeight.
func CheckWeight(w float64) error {
	if !(w > 0) || math.IsInf(w, 1) { // rejects NaN, zero, negative, +Inf
		return fmt.Errorf("weight must be finite and positive, got %v", w)
	}
	if w > MaxWeight {
		return fmt.Errorf("weight %v exceeds the maximum %d", w, MaxWeight)
	}
	return nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the size of the edge id space, including tombstoned
// ids awaiting reuse — the bound callers size edge-indexed arrays by.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumLiveEdges returns the number of live (non-tombstoned) edges.
func (g *Graph) NumLiveEdges() int { return len(g.edges) - len(g.free) }

// FreeEdgeIDs returns a copy of the tombstone freelist in stack order (the
// last element is the id the next AddEdge will reuse). Callers that predict
// future id assignment — the serving layer's ingestion batcher — seed
// their edge view from it.
func (g *Graph) FreeEdgeIDs() []EdgeID { return append([]EdgeID(nil), g.free...) }

// EdgeAlive reports whether id names a live edge.
func (g *Graph) EdgeAlive(id EdgeID) bool {
	return id >= 0 && int(id) < len(g.edges) && !g.dead[id]
}

// ForEachEdge calls fn for every live edge in ascending id order.
func (g *Graph) ForEachEdge(fn func(*Edge)) {
	for i := range g.edges {
		if !g.dead[i] {
			fn(&g.edges[i])
		}
	}
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Edge returns the edge with the given id. Tombstoned edges remain
// readable until their id is reused.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// Incident returns the ids of edges incident to n, ascending. The returned
// slice is owned by the graph, must not be modified, and is invalidated by
// topology mutations. Calling it freezes the graph (merging any pending
// overlay) so the result is always one contiguous slice.
func (g *Graph) Incident(n NodeID) []EdgeID {
	if !g.frozen || len(g.dirty) > 0 {
		g.Freeze()
	}
	return g.csrAdj[g.csrOff[n] : g.csrOff[n]+g.csrLen[n]]
}

// ForEachIncident calls fn for every live edge incident to n. Unlike
// Incident it never freezes: on a graph with pending overlay mutations it
// merges the CSR row with the overlay on the fly (CSR ∪ overlay), so
// traversal between mutation and freeze sees the patched topology.
func (g *Graph) ForEachIncident(n NodeID, fn func(EdgeID)) {
	if !g.frozen {
		for _, e := range g.adj[n] {
			fn(e)
		}
		return
	}
	row := g.csrAdj[g.csrOff[n] : g.csrOff[n]+g.csrLen[n]]
	if len(g.dirty) == 0 {
		for _, e := range row {
			fn(e)
		}
		return
	}
	for _, e := range row {
		if g.dead[e] || !g.edges[e].HasEndpoint(n) || g.pendStamp[e] == g.pendEpoch {
			continue
		}
		fn(e)
	}
	for _, e := range g.pendAdd {
		if !g.dead[e] && g.edges[e].HasEndpoint(n) {
			fn(e)
		}
	}
}

// Degree returns the number of live edges incident to n. Like Incident it
// freezes (merging any pending overlay) first.
func (g *Graph) Degree(n NodeID) int {
	if !g.frozen || len(g.dirty) > 0 {
		g.Freeze()
	}
	return int(g.csrLen[n])
}

// SetWeight updates the weight of edge id, stored quantised (see Quantum).
// It panics with CheckWeight's error, or on a tombstoned edge. Weights are
// not part of the CSR layout, so this never touches the overlay.
func (g *Graph) SetWeight(id EdgeID, w float64) {
	if err := CheckWeight(w); err != nil {
		panic("graph: SetWeight: " + err.Error())
	}
	if g.dead[id] {
		panic(fmt.Sprintf("graph: SetWeight on removed edge %d", id))
	}
	g.edges[id].W = QuantiseWeight(w)
}

// Segment returns the geometry of edge id.
func (g *Graph) Segment(id EdgeID) geom.Segment {
	e := &g.edges[id]
	return geom.Segment{A: g.nodes[e.U].Pt, B: g.nodes[e.V].Pt}
}

// Bounds returns the bounding rectangle of all nodes. An empty graph yields
// the zero Rect.
func (g *Graph) Bounds() geom.Rect {
	if len(g.nodes) == 0 {
		return geom.Rect{}
	}
	r := geom.Rect{Min: g.nodes[0].Pt, Max: g.nodes[0].Pt}
	for _, n := range g.nodes[1:] {
		r.Min.X = math.Min(r.Min.X, n.Pt.X)
		r.Min.Y = math.Min(r.Min.Y, n.Pt.Y)
		r.Max.X = math.Max(r.Max.X, n.Pt.X)
		r.Max.Y = math.Max(r.Max.Y, n.Pt.Y)
	}
	return r
}

// Validate checks structural invariants (every live edge passes CheckEdge,
// adjacency consistency, tombstone bookkeeping) and returns the first
// violation found.
func (g *Graph) Validate() error {
	if len(g.free) != g.deadCount() {
		return fmt.Errorf("freelist holds %d ids but %d edges are tombstoned", len(g.free), g.deadCount())
	}
	for i := range g.edges {
		if g.dead[i] {
			continue
		}
		e := &g.edges[i]
		if err := CheckEdge(len(g.nodes), e.U, e.V, e.W); err != nil {
			return fmt.Errorf("edge %d: %w", e.ID, err)
		}
		if !containsEdge(g.Incident(e.U), e.ID) || !containsEdge(g.Incident(e.V), e.ID) {
			return fmt.Errorf("edge %d missing from endpoint adjacency", e.ID)
		}
	}
	for n := range g.nodes {
		prev := NoEdge
		for _, id := range g.Incident(NodeID(n)) {
			if id < 0 || int(id) >= len(g.edges) {
				return fmt.Errorf("node %d lists invalid edge %d", n, id)
			}
			if g.dead[id] {
				return fmt.Errorf("node %d lists tombstoned edge %d", n, id)
			}
			if !g.edges[id].HasEndpoint(NodeID(n)) {
				return fmt.Errorf("node %d lists non-incident edge %d", n, id)
			}
			if g.frozen && id <= prev {
				return fmt.Errorf("node %d row not ascending at edge %d", n, id)
			}
			prev = id
		}
	}
	return nil
}

func (g *Graph) deadCount() int {
	n := 0
	for _, d := range g.dead {
		if d {
			n++
		}
	}
	return n
}

func containsEdge(ids []EdgeID, id EdgeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// sortRow sorts a (usually tiny, usually already sorted) adjacency row
// ascending by EdgeID without allocating.
func sortRow(row []EdgeID) {
	for i := 1; i < len(row); i++ {
		for j := i; j > 0 && row[j] < row[j-1]; j-- {
			row[j], row[j-1] = row[j-1], row[j]
		}
	}
}

// ConnectedComponents returns the component index of every node and the
// number of components, treating all edges as bidirectional.
func (g *Graph) ConnectedComponents() ([]int, int) {
	comp := make([]int, len(g.nodes))
	for i := range comp {
		comp[i] = -1
	}
	var stack []NodeID
	var u NodeID
	n := 0
	visit := func(eid EdgeID) {
		v := g.edges[eid].Other(u)
		if comp[v] == -1 {
			comp[v] = n
			stack = append(stack, v)
		}
	}
	for start := range g.nodes {
		if comp[start] != -1 {
			continue
		}
		stack = append(stack[:0], NodeID(start))
		comp[start] = n
		for len(stack) > 0 {
			u = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.ForEachIncident(u, visit)
		}
		n++
	}
	return comp, n
}

// Dijkstra computes shortest-path distances from every source node, seeded
// with the given initial distances, to all nodes within maxDist. Distances
// for unreachable nodes (or nodes beyond maxDist) are +Inf. Pass
// math.Inf(1) as maxDist for an unbounded search.
//
// The traversal consults the delta overlay (CSR ∪ overlay), so it is
// correct between a topology mutation and the next Freeze.
//
// The returned parent slice gives the predecessor node on a shortest path
// (NoNode for sources and unreached nodes).
func (g *Graph) Dijkstra(sources []NodeID, seed []float64, maxDist float64) (dist []float64, parent []NodeID) {
	dist = make([]float64, len(g.nodes))
	parent = make([]NodeID, len(g.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = NoNode
	}
	q := pqueue.NewDense(len(g.nodes))
	for i, s := range sources {
		d := 0.0
		if seed != nil {
			d = seed[i]
		}
		if d < dist[s] {
			dist[s] = d
			q.Push(int32(s), d)
		}
	}
	var u NodeID
	var du float64
	relax := func(eid EdgeID) {
		e := &g.edges[eid]
		v := e.Other(u)
		nd := du + e.W
		if nd <= maxDist && nd < dist[v] {
			dist[v] = nd
			parent[v] = u
			q.Push(int32(v), nd)
		}
	}
	for q.Len() > 0 {
		ui, d, _ := q.PopMin()
		u, du = NodeID(ui), d
		if du > dist[u] {
			continue
		}
		if du > maxDist {
			break
		}
		g.ForEachIncident(u, relax)
	}
	return dist, parent
}
