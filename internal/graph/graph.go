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
	"slices"

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
// for use. Graph is not safe for concurrent mutation; concurrent reads
// (Incident, Degree, Dijkstra, the engines' parallel shard workers) are
// safe, because no read writes.
//
// Adjacency is one slice of edge ids per node, each row ascending by
// EdgeID at all times: AddEdge inserts the new id into both endpoint rows
// at its sorted position and RemoveEdge deletes it in place, so an edit
// costs the two rows it touches. The canonical order makes traversal order
// — and therefore every engine result downstream — a function of the
// logical edge set alone, independent of the history of edits and id
// reuse, which is what lets WAL replay and replication reproduce
// byte-identical state.
type Graph struct {
	nodes []Node
	edges []Edge
	adj   [][]EdgeID // adj[n]: the live edges incident to n, ascending
	dead  []bool     // tombstones, indexed by EdgeID
	free  []EdgeID   // LIFO freelist of tombstoned ids
}

// New returns an empty graph with capacity hints.
func New(nodeHint, edgeHint int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, nodeHint),
		edges: make([]Edge, 0, edgeHint),
		adj:   make([][]EdgeID, 0, nodeHint),
	}
}

// AddNode inserts a node at pt, with no incident edges, and returns its id.
func (g *Graph) AddNode(pt geom.Point) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pt: pt})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge inserts a bidirectional edge between u and v with weight w and
// returns its id: the id of the most recently removed edge if there is
// one, else the next fresh id. The weight is stored quantised (see
// Quantum); the geometric length is the Euclidean distance between the
// endpoints. It panics with CheckEdge's error on an edge the graph cannot
// hold.
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
	}
	g.edges[id] = Edge{ID: id, U: u, V: v, W: QuantiseWeight(w), Length: g.nodes[u].Pt.Dist(g.nodes[v].Pt)}
	insertIntoRow(&g.adj[u], id)
	insertIntoRow(&g.adj[v], id)
	return id
}

// RemoveEdge tombstones edge id: it leaves its endpoints' rows at once, and
// the id is reused by the next AddEdge. Geometry of the tombstoned edge
// (Edge, Segment) stays readable until the id is reused, so callers can
// re-snap entities that lived on it. Removing an invalid or already-removed
// edge panics.
func (g *Graph) RemoveEdge(id EdgeID) {
	if id < 0 || int(id) >= len(g.edges) || g.dead[id] {
		panic(fmt.Sprintf("graph: RemoveEdge of invalid or removed edge %d", id))
	}
	e := &g.edges[id]
	removeFromRow(&g.adj[e.U], id)
	removeFromRow(&g.adj[e.V], id)
	g.dead[id] = true
	g.free = append(g.free, id)
}

// insertIntoRow adds id to an ascending row at its sorted position.
func insertIntoRow(row *[]EdgeID, id EdgeID) {
	i, _ := slices.BinarySearch(*row, id)
	*row = slices.Insert(*row, i, id)
}

// removeFromRow deletes id from an ascending row that holds it.
func removeFromRow(row *[]EdgeID, id EdgeID) {
	i, _ := slices.BinarySearch(*row, id)
	*row = slices.Delete(*row, i, i+1)
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
// topology mutations.
func (g *Graph) Incident(n NodeID) []EdgeID { return g.adj[n] }

// Degree returns the number of live edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// SetWeight updates the weight of edge id, stored quantised (see Quantum).
// It panics with CheckWeight's error, or on a tombstoned edge.
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
			if id <= prev {
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

// ConnectedComponents returns the component index of every node and the
// number of components, treating all edges as bidirectional.
func (g *Graph) ConnectedComponents() ([]int, int) {
	comp := make([]int, len(g.nodes))
	for i := range comp {
		comp[i] = -1
	}
	var stack []NodeID
	n := 0
	for start := range g.nodes {
		if comp[start] != -1 {
			continue
		}
		stack = append(stack[:0], NodeID(start))
		comp[start] = n
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range g.Incident(u) {
				v := g.edges[eid].Other(u)
				if comp[v] == -1 {
					comp[v] = n
					stack = append(stack, v)
				}
			}
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
	for q.Len() > 0 {
		ui, du, _ := q.PopMin()
		u := NodeID(ui)
		if du > dist[u] {
			continue
		}
		if du > maxDist {
			break
		}
		for _, eid := range g.Incident(u) {
			e := &g.edges[eid]
			v := e.Other(u)
			nd := du + e.W
			if nd <= maxDist && nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				q.Push(int32(v), nd)
			}
		}
	}
	return dist, parent
}
