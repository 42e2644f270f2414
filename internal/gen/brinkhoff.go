package gen

import (
	"math/rand"

	"roadknn/internal/graph"
	"roadknn/internal/pqueue"
	"roadknn/internal/roadnet"
)

// Brinkhoff is a network-based moving-object simulator in the spirit of
// Brinkhoff's generator (GeoInformatica 2002), used for Figure 19: movers
// belong to speed classes and travel along shortest paths toward random
// destinations, re-planning when they arrive. This differs from the random
// walks of the main experiments in exactly the way that matters for the
// figure — movement is destination-directed and network-constrained.
type Brinkhoff struct {
	net     *roadnet.Network
	rng     *rand.Rand
	classes []float64 // speed per class, in average-edge-length units per ts
	movers  []mover
	avgLen  float64
	heap    *pqueue.Dense // route's Dijkstra frontier, reset per route
}

type mover struct {
	pos   roadnet.Position
	route []graph.NodeID // remaining nodes to visit, reversed (next at end)
	// travel within the current edge toward route's next node
	class int
}

// NewBrinkhoff creates a simulator with the given number of movers spread
// uniformly over the network. Following Brinkhoff's defaults, movers are
// split into three speed classes (slow, medium, fast).
func NewBrinkhoff(net *roadnet.Network, count int, seed int64) *Brinkhoff {
	b := &Brinkhoff{
		net:     net,
		rng:     rand.New(rand.NewSource(seed)),
		classes: []float64{0.5, 1.0, 2.0},
		avgLen:  net.AvgEdgeLength(),
		heap:    pqueue.NewDense(net.G.NumNodes()),
	}
	b.movers = make([]mover, count)
	for i := range b.movers {
		b.movers[i] = mover{
			pos:   net.UniformPosition(b.rng),
			class: b.rng.Intn(len(b.classes)),
		}
	}
	return b
}

// Position returns the current position of mover i.
func (b *Brinkhoff) Position(i int) roadnet.Position { return b.movers[i].pos }

// Count returns the number of movers.
func (b *Brinkhoff) Count() int { return len(b.movers) }

// Move is one simulator mover update: (index, new position).
type Move struct {
	Index int
	New   roadnet.Position
}

// Step advances every mover by one timestamp and returns the moves of the
// fraction of movers that actually traveled (agility). Movers without a
// route pick a random destination and follow a geometric shortest path.
func (b *Brinkhoff) Step(agility float64) []Move {
	var out []Move
	for i := range b.movers {
		if b.rng.Float64() >= agility {
			continue
		}
		m := &b.movers[i]
		old := m.pos
		b.advance(m, b.classes[m.class]*b.avgLen)
		if m.pos != old {
			out = append(out, Move{Index: i, New: m.pos})
		}
	}
	return out
}

// advance moves m along its route by geometric distance d, re-planning as
// needed.
func (b *Brinkhoff) advance(m *mover, d float64) {
	g := b.net.G
	for d > 1e-12 {
		if len(m.route) == 0 {
			dest := graph.NodeID(b.rng.Intn(g.NumNodes()))
			m.route = b.route(m.pos, dest)
			if len(m.route) == 0 {
				// Degenerate (already at destination edge endpoint); jitter
				// within the edge instead.
				m.pos = b.net.RandomWalk(m.pos, d, 0, b.rng)
				return
			}
		}
		next := m.route[len(m.route)-1]
		e := g.Edge(m.pos.Edge)
		if !e.HasEndpoint(next) {
			// Route is stale relative to the position (can happen right
			// after re-planning onto a different edge); drop it.
			m.route = nil
			continue
		}
		length := e.Length
		if length <= 0 {
			length = 1e-12
		}
		var remain float64
		toV := next == e.V
		if toV {
			remain = (1 - m.pos.Frac) * length
		} else {
			remain = m.pos.Frac * length
		}
		if d < remain {
			delta := d / length
			if toV {
				m.pos.Frac += delta
			} else {
				m.pos.Frac -= delta
			}
			return
		}
		d -= remain
		m.route = m.route[:len(m.route)-1]
		// Arrived at `next`; hop onto the edge toward the new next node.
		if len(m.route) == 0 {
			// Destination reached: stand exactly at the node on the current
			// edge endpoint.
			if toV {
				m.pos.Frac = 1
			} else {
				m.pos.Frac = 0
			}
			continue // next loop iteration plans a new route (if d remains)
		}
		after := m.route[len(m.route)-1]
		eid, ok := b.edgeBetween(next, after)
		if !ok {
			m.route = nil
			continue
		}
		ne := g.Edge(eid)
		if ne.U == next {
			m.pos = roadnet.Position{Edge: eid, Frac: 0}
		} else {
			m.pos = roadnet.Position{Edge: eid, Frac: 1}
		}
	}
}

func (b *Brinkhoff) edgeBetween(u, v graph.NodeID) (graph.EdgeID, bool) {
	best := graph.NoEdge
	bestW := 0.0
	for _, eid := range b.net.G.Incident(u) {
		e := b.net.G.Edge(eid)
		if e.Other(u) == v {
			if best == graph.NoEdge || e.Length < bestW {
				best, bestW = eid, e.Length
			}
		}
	}
	return best, best != graph.NoEdge
}

// route computes a geometric shortest path of nodes from pos to dest,
// returned reversed (next hop at the end). The first entry consumed is an
// endpoint of pos.Edge.
func (b *Brinkhoff) route(pos roadnet.Position, dest graph.NodeID) []graph.NodeID {
	g := b.net.G
	// Dijkstra on geometric length from dest back to the endpoints of
	// pos.Edge, then walk parents forward.
	dist := make(map[graph.NodeID]float64, 64)
	parent := make(map[graph.NodeID]graph.NodeID, 64)
	q := b.heap
	q.Reset()
	dist[dest] = 0
	q.Push(int32(dest), 0)
	e := g.Edge(pos.Edge)
	for q.Len() > 0 {
		ui, du, _ := q.PopMin()
		u := graph.NodeID(ui)
		if du > dist[u] {
			continue
		}
		if u == e.U || u == e.V {
			break
		}
		for _, eid := range g.Incident(u) {
			ed := g.Edge(eid)
			v := ed.Other(u)
			nd := du + ed.Length
			if cur, ok := dist[v]; !ok || nd < cur {
				dist[v] = nd
				parent[v] = u
				q.Push(int32(v), nd)
			}
		}
	}
	// Choose the better entry endpoint.
	du, okU := dist[e.U]
	dv, okV := dist[e.V]
	lu := pos.Frac * e.Length
	lv := (1 - pos.Frac) * e.Length
	var start graph.NodeID
	switch {
	case okU && (!okV || lu+du <= lv+dv):
		start = e.U
	case okV:
		start = e.V
	default:
		return nil
	}
	// Path from start to dest follows parent pointers (which point toward
	// dest, since the search ran from dest).
	var path []graph.NodeID
	for n := start; ; {
		path = append(path, n)
		if n == dest {
			break
		}
		nxt, ok := parent[n]
		if !ok {
			return nil
		}
		n = nxt
	}
	// Reverse so the next hop is at the end.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
