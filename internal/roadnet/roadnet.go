// Package roadnet provides the runtime road-network model used by the
// monitoring server: the graph (nodes, edges, fluctuating weights), the
// spatial index SI for coordinate-to-edge lookup, the per-edge object lists
// of the paper's edge table ET, positions of objects/queries along edges,
// network-constrained random walks, and the sequence decomposition needed by
// the group monitoring algorithm (GMA).
package roadnet

import (
	"fmt"
	"math"
	"sort"

	"roadknn/internal/geom"
	"roadknn/internal/graph"
	"roadknn/internal/idtable"
	"roadknn/internal/quadtree"
)

// ObjectID identifies a data object (e.g. a pedestrian or taxi).
type ObjectID int32

// Position locates a point on the network: a fraction Frac in [0,1] along
// edge Edge, measured from the edge's U endpoint. Distances along an edge
// are proportional to the edge weight: a point at Frac f is f*W from U in
// travel cost (rounded to the quantum, CostFromU), and f*Length from U
// geometrically.
type Position struct {
	Edge graph.EdgeID
	Frac float64
}

// Network is the runtime model: graph + spatial index + object registry.
// It is not safe for concurrent mutation.
//
// The object registry is the edge table's per-edge object lists plus one
// record per object saying where in them it sits: objIdx maps an object id
// to its record's row, and each list entry carries its record's row back.
// A lookup is one table probe; a move or removal is O(1) — the entry at
// the record's slot is rewritten in place or swap-removed, with the entry
// swapped into its place re-pointed through its own record. Lists keep
// append / swap-remove order, which is what expansions iterate.
type Network struct {
	G  *graph.Graph
	SI *quadtree.Tree

	objIdx  idtable.Table
	objRec  []objRecord     // by objIdx row
	edgeObj [][]ObjectEntry // objects per edge, unordered
}

// ObjectEntry is an object stored in an edge's object list, with its
// fraction along the edge duplicated so that network expansions can scan
// edge lists without per-object lookups.
type ObjectEntry struct {
	ID   ObjectID
	rec  int32 // row of the object's record; fills what would be padding
	Frac float64
}

// objRecord locates a registered object: edgeObj[edge][slot] is its entry.
type objRecord struct {
	edge graph.EdgeID
	slot int32
}

// NewNetwork wraps g with a spatial index and empty object registry.
// The graph should be fully constructed (nodes and edges) before wrapping;
// use AddEdge/RemoveEdge on the network for live topology editing so the
// spatial index and per-edge object lists stay consistent.
func NewNetwork(g *graph.Graph) *Network {
	b := g.Bounds().Expand(1e-9)
	si := quadtree.New(b)
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeAlive(graph.EdgeID(i)) {
			si.Insert(int32(i), g.Segment(graph.EdgeID(i)))
		}
	}
	return &Network{
		G:       g,
		SI:      si,
		edgeObj: make([][]ObjectEntry, g.NumEdges()),
	}
}

// AddEdge inserts a live edge between u and v (reusing the most recently
// tombstoned id, if any) and indexes its segment. The per-edge object list
// for a reused id must already be empty: residents of the removed
// predecessor are re-snapped by RemoveEdge before the id can be reused.
func (n *Network) AddEdge(u, v graph.NodeID, w float64) graph.EdgeID {
	id := n.G.AddEdge(u, v, w)
	if int(id) == len(n.edgeObj) {
		n.edgeObj = append(n.edgeObj, nil)
	} else if len(n.edgeObj[id]) > 0 {
		panic(fmt.Sprintf("roadnet: reused edge id %d still has resident objects", id))
	}
	n.SI.Insert(int32(id), n.G.Segment(id))
	return id
}

// ObjectMove records one re-snap performed by RemoveEdge.
type ObjectMove struct {
	ID       ObjectID
	Old, New Position
}

// RemoveEdge tombstones edge e, removes it from the spatial index, and
// re-snaps every resident object onto the nearest live edge (deterministic:
// the quadtree's nearest search tie-breaks on segment id). The performed
// moves are returned sorted by object id so callers can propagate them to
// result maintenance. Removing the last live edge panics while objects
// remain — they would have nowhere to go.
func (n *Network) RemoveEdge(e graph.EdgeID) []ObjectMove {
	n.SI.Remove(int32(e))
	n.G.RemoveEdge(e)
	residents := n.edgeObj[e]
	if len(residents) == 0 {
		return nil
	}
	moves := make([]ObjectMove, 0, len(residents))
	for _, ent := range residents {
		moves = append(moves, ObjectMove{ID: ent.ID, Old: Position{Edge: e, Frac: ent.Frac}})
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].ID < moves[j].ID })
	for i := range moves {
		// The tombstoned edge's geometry stays readable until id reuse, so
		// the old coordinates are still computable.
		np, ok := n.Snap(n.Point(moves[i].Old))
		if !ok {
			panic("roadnet: RemoveEdge left resident objects with no live edge to re-snap onto")
		}
		moves[i].New = np
		n.MoveObject(moves[i].ID, np)
	}
	return moves
}

// Resnap returns the nearest live network position to pos. pos may
// reference a tombstoned edge whose geometry is still readable — the
// re-snap path for queries and late reports that mention a removed edge.
func (n *Network) Resnap(pos Position) (Position, bool) {
	return n.Snap(n.Point(pos))
}

// Point returns the workspace coordinates of pos.
func (n *Network) Point(pos Position) geom.Point {
	return n.G.Segment(pos.Edge).At(pos.Frac)
}

// Snap returns the network position closest (in Euclidean distance) to pt.
// ok is false only for an edgeless network.
func (n *Network) Snap(pt geom.Point) (Position, bool) {
	id, _, ok := n.SI.Nearest(pt)
	if !ok {
		return Position{}, false
	}
	eid := graph.EdgeID(id)
	return Position{Edge: eid, Frac: n.G.Segment(eid).ClosestFrac(pt)}, true
}

// CostFromU returns the travel cost from e's U endpoint to the point at
// fraction frac along e: frac·W rounded to graph.Quantum. Every position's
// cost is derived here, so it is a whole number of quanta like the weights,
// and path sums through it are exact.
func CostFromU(e *graph.Edge, frac float64) float64 { return graph.Quantise(frac * e.W) }

// CostFromV returns the travel cost from e's V endpoint to the point at
// fraction frac along e: the rest of the edge.
func CostFromV(e *graph.Edge, frac float64) float64 { return e.W - CostFromU(e, frac) }

// CostFrom returns the travel cost from endpoint n of e to the point at
// fraction frac along e; n must be an endpoint of e. It is small enough to
// inline into the expansions, which call it once per object scanned.
func CostFrom(e *graph.Edge, n graph.NodeID, frac float64) float64 {
	c := CostFromU(e, frac)
	switch n {
	case e.U:
		return c
	case e.V:
		return e.W - c
	}
	panic("roadnet: CostFrom from a node that is not an endpoint of the edge")
}

// ArcCost returns the travel cost between the points at fractions a and b
// along e.
func ArcCost(e *graph.Edge, a, b float64) float64 {
	return math.Abs(CostFromU(e, a) - CostFromU(e, b))
}

// AddObject registers object id at pos. Re-adding an existing id panics.
func (n *Network) AddObject(id ObjectID, pos Position) {
	row, added := n.objIdx.Insert(int32(id))
	if !added {
		panic(fmt.Sprintf("roadnet: object %d already registered", id))
	}
	if int(row) == len(n.objRec) {
		n.objRec = append(n.objRec, objRecord{})
	}
	n.link(row, id, pos)
}

// RemoveObject unregisters object id and returns its last position.
func (n *Network) RemoveObject(id ObjectID) (Position, bool) {
	row, ok := n.objIdx.Delete(int32(id))
	if !ok {
		return Position{}, false
	}
	r := n.objRec[row]
	pos := n.at(r)
	n.unlink(r)
	return pos, true
}

// MoveObject updates object id to pos and returns its previous position.
// Moving an unknown object panics: a move reports an object the server
// already tracks, so an unknown id indicates upstream corruption.
func (n *Network) MoveObject(id ObjectID, pos Position) Position {
	row, ok := n.objIdx.Find(int32(id))
	if !ok {
		panic(fmt.Sprintf("roadnet: MoveObject of unknown object %d", id))
	}
	r := n.objRec[row]
	old := n.at(r)
	if old.Edge == pos.Edge {
		n.edgeObj[r.edge][r.slot].Frac = pos.Frac
		return old
	}
	n.unlink(r)
	n.link(row, id, pos)
	return old
}

// at is the position record r points at.
func (n *Network) at(r objRecord) Position {
	return Position{Edge: r.edge, Frac: n.edgeObj[r.edge][r.slot].Frac}
}

// link appends object id, whose record is row, to pos's edge list.
func (n *Network) link(row int32, id ObjectID, pos Position) {
	list := n.edgeObj[pos.Edge]
	n.objRec[row] = objRecord{edge: pos.Edge, slot: int32(len(list))}
	n.edgeObj[pos.Edge] = append(list, ObjectEntry{ID: id, rec: row, Frac: pos.Frac})
}

// unlink swap-removes the entry r points at: the list's last entry takes
// its slot, and that entry's record follows it there.
func (n *Network) unlink(r objRecord) {
	list := n.edgeObj[r.edge]
	last := len(list) - 1
	list[r.slot] = list[last]
	n.objRec[list[r.slot].rec].slot = r.slot
	n.edgeObj[r.edge] = list[:last]
}

// ObjectPos returns the position of object id.
func (n *Network) ObjectPos(id ObjectID) (Position, bool) {
	row, ok := n.objIdx.Find(int32(id))
	if !ok {
		return Position{}, false
	}
	return n.at(n.objRec[row]), true
}

// ObjectsOn returns the objects currently on edge e with their fractions.
// The returned slice is owned by the network and must not be modified.
func (n *Network) ObjectsOn(e graph.EdgeID) []ObjectEntry { return n.edgeObj[e] }

// NumObjects returns the number of registered objects.
func (n *Network) NumObjects() int { return n.objIdx.Len() }

// ForEachObject calls fn for every registered object, edge by edge.
func (n *Network) ForEachObject(fn func(ObjectID, Position)) {
	for e, list := range n.edgeObj {
		for _, oe := range list {
			fn(oe.ID, Position{Edge: graph.EdgeID(e), Frac: oe.Frac})
		}
	}
}

// AvgEdgeLength returns the mean geometric length of the live edges, the
// unit in which the paper expresses object and query speeds.
func (n *Network) AvgEdgeLength() float64 {
	m := n.G.NumLiveEdges()
	if m == 0 {
		return 0
	}
	sum := 0.0
	n.G.ForEachEdge(func(e *graph.Edge) { sum += e.Length })
	return sum / float64(m)
}

// RandSource is the subset of math/rand used by the walk, so tests can
// substitute deterministic sources.
type RandSource interface {
	Intn(n int) int
	Float64() float64
}

// RandomWalk advances pos by the given geometric distance performing a
// random walk: within an edge it moves toward the chosen endpoint; at nodes
// it picks a random incident edge, avoiding an immediate U-turn unless the
// node is a dead end. dir is the initial direction (+1 toward V, -1 toward
// U); pass 0 to choose randomly. It returns the final position.
func (n *Network) RandomWalk(pos Position, distance float64, dir int, rng RandSource) Position {
	if dir == 0 {
		if rng.Intn(2) == 0 {
			dir = -1
		} else {
			dir = 1
		}
	}
	const maxSteps = 1 << 16 // defensive bound against zero-length edges
	for step := 0; distance > 0 && step < maxSteps; step++ {
		e := n.G.Edge(pos.Edge)
		length := e.Length
		if length <= 0 {
			length = 1e-12
		}
		var remain float64 // geometric distance to the endpoint ahead
		var ahead graph.NodeID
		if dir > 0 {
			remain = (1 - pos.Frac) * length
			ahead = e.V
		} else {
			remain = pos.Frac * length
			ahead = e.U
		}
		if distance < remain {
			delta := distance / length
			if dir > 0 {
				pos.Frac += delta
			} else {
				pos.Frac -= delta
			}
			return clampPos(pos)
		}
		distance -= remain
		// Arrived at node `ahead`; choose the next edge.
		inc := n.G.Incident(ahead)
		next := pos.Edge
		if len(inc) > 1 {
			for tries := 0; tries < 8; tries++ {
				cand := inc[rng.Intn(len(inc))]
				if cand != pos.Edge {
					next = cand
					break
				}
			}
			if next == pos.Edge { // unlucky draws; pick deterministically
				for _, cand := range inc {
					if cand != pos.Edge {
						next = cand
						break
					}
				}
			}
		}
		ne := n.G.Edge(next)
		if ne.U == ahead {
			pos = Position{Edge: next, Frac: 0}
			dir = 1
		} else {
			pos = Position{Edge: next, Frac: 1}
			dir = -1
		}
	}
	return clampPos(pos)
}

func clampPos(p Position) Position {
	if p.Frac < 0 {
		p.Frac = 0
	} else if p.Frac > 1 {
		p.Frac = 1
	}
	return p
}

// UniformPosition returns a uniformly random position: a uniformly chosen
// live edge and a uniform fraction along it.
func (n *Network) UniformPosition(rng RandSource) Position {
	if n.G.NumLiveEdges() == 0 {
		panic("roadnet: UniformPosition on a network with no live edges")
	}
	for {
		e := graph.EdgeID(rng.Intn(n.G.NumEdges()))
		if n.G.EdgeAlive(e) {
			return Position{Edge: e, Frac: rng.Float64()}
		}
	}
}
