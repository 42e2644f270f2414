// Package gen builds the synthetic inputs of the experimental evaluation:
// road networks that substitute for the San Francisco and Oldenburg maps
// used by the paper, object/query placements (uniform and Gaussian), and a
// Brinkhoff-style network-based moving-object simulator.
//
// The substitutions are sound because the experiments depend on edge
// counts, connectivity, the mix of intersections and degree-2 chains, and
// weight = segment length — all of which the generators reproduce — not on
// the particular city geometry.
package gen

import (
	"math/rand"

	"roadknn/internal/geom"
	"roadknn/internal/graph"
)

// NetworkConfig controls RoadNetwork generation.
type NetworkConfig struct {
	// TargetEdges is the approximate number of edges to produce.
	TargetEdges int
	// ChainFraction is the fraction of base edges subdivided into degree-2
	// chains (road segments between intersections), giving GMA non-trivial
	// sequences. 0.35 resembles a real road map.
	ChainFraction float64
	// MaxChainLen is the maximum number of sub-edges per chain.
	MaxChainLen int
	// DropFraction removes this fraction of grid edges to break the regular
	// structure (kept connected).
	DropFraction float64
	// Jitter perturbs node coordinates by +-Jitter*spacing.
	Jitter float64
	// Seed drives all randomness; the same seed yields the same network.
	Seed int64
}

// SanFranciscoLikeConfig returns the generator configuration used as the
// stand-in for the paper's San Francisco sub-networks.
func SanFranciscoLikeConfig(edges int, seed int64) NetworkConfig {
	return NetworkConfig{
		TargetEdges:   edges,
		ChainFraction: 0.35,
		MaxChainLen:   6,
		DropFraction:  0.18,
		Jitter:        0.35,
		Seed:          seed,
	}
}

// SanFranciscoLike generates a road network with approximately the given
// number of edges, mimicking the statistics of the paper's San Francisco
// sub-networks (planar, mostly degree 3-4 intersections, long degree-2
// chains, weight = Euclidean length).
func SanFranciscoLike(edges int, seed int64) *graph.Graph {
	return RoadNetwork(SanFranciscoLikeConfig(edges, seed))
}

// OldenburgLike generates a network with roughly the size of the Oldenburg
// road map used in Figure 19 (6105 nodes, 7035 edges).
func OldenburgLike(seed int64) *graph.Graph {
	cfg := NetworkConfig{
		TargetEdges:   7035,
		ChainFraction: 0.55, // Oldenburg has a high node/edge ratio
		MaxChainLen:   8,
		DropFraction:  0.22,
		Jitter:        0.35,
		Seed:          seed,
	}
	return RoadNetwork(cfg)
}

// RoadNetwork builds a connected, planar-ish road network:
//
//  1. lay out a jittered k x k grid,
//  2. drop a fraction of edges (never disconnecting the grid),
//  3. subdivide a fraction of the remaining edges into degree-2 chains.
//
// Edge weights equal geometric segment lengths, matching the paper's
// initial condition ("the initial weights of the edges correspond to their
// lengths").
func RoadNetwork(cfg NetworkConfig) *graph.Graph {
	if cfg.TargetEdges < 1 {
		cfg.TargetEdges = 1
	}
	if cfg.MaxChainLen < 1 {
		cfg.MaxChainLen = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Estimate the grid side k. A k x k grid has 2k(k-1) edges; after
	// dropping d and subdividing c of the rest into chains of mean length
	// (1+MaxChainLen)/2, the edge count is roughly
	//   2k(k-1) * (1-d) * (1-c + c*meanChain).
	meanChain := float64(1+cfg.MaxChainLen) / 2
	factor := (1 - cfg.DropFraction) * ((1 - cfg.ChainFraction) + cfg.ChainFraction*meanChain)
	if factor <= 0 {
		factor = 1
	}
	base := float64(cfg.TargetEdges) / factor
	k := 2
	for float64(2*k*(k-1)) < base {
		k++
	}

	type gridEdge struct{ ax, ay, bx, by int }
	var baseEdges []gridEdge
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				baseEdges = append(baseEdges, gridEdge{x, y, x + 1, y})
			}
			if y+1 < k {
				baseEdges = append(baseEdges, gridEdge{x, y, x, y + 1})
			}
		}
	}

	// Decide which edges to keep. A spanning tree over grid cells keeps the
	// network connected: build a union-find and never drop a bridge that
	// would split the structure.
	uf := newUnionFind(k * k)
	idx := func(x, y int) int { return y*k + x }
	keep := make([]bool, len(baseEdges))
	order := rng.Perm(len(baseEdges))
	dropBudget := int(cfg.DropFraction * float64(len(baseEdges)))
	dropped := 0
	// First pass: tentatively drop random edges while connectivity can
	// still be established by the remaining ones. Process in random order:
	// union the kept ones, drop others while budget remains.
	// Process edges in random order: an edge may be dropped only when its
	// endpoints are already connected through kept edges, so the kept set
	// always contains a spanning structure.
	for _, i := range order {
		e := baseEdges[i]
		a, b := idx(e.ax, e.ay), idx(e.bx, e.by)
		if dropped < dropBudget && uf.find(a) == uf.find(b) {
			dropped++
			continue
		}
		keep[i] = true
		uf.union(a, b)
	}

	g := graph.New(k*k, cfg.TargetEdges+k)
	spacing := 1.0
	nodeIDs := make([]graph.NodeID, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			jx := (rng.Float64()*2 - 1) * cfg.Jitter * spacing
			jy := (rng.Float64()*2 - 1) * cfg.Jitter * spacing
			nodeIDs[idx(x, y)] = g.AddNode(geom.Point{
				X: float64(x)*spacing + jx,
				Y: float64(y)*spacing + jy,
			})
		}
	}

	addSegment := func(u, v graph.NodeID) {
		w := g.Node(u).Pt.Dist(g.Node(v).Pt)
		if w <= 1e-9 {
			w = 1e-9
		}
		g.AddEdge(u, v, w)
	}

	for i, e := range baseEdges {
		if !keep[i] {
			continue
		}
		u := nodeIDs[idx(e.ax, e.ay)]
		v := nodeIDs[idx(e.bx, e.by)]
		if rng.Float64() < cfg.ChainFraction && cfg.MaxChainLen > 1 {
			// Subdivide into a degree-2 chain with 2..MaxChainLen sub-edges.
			parts := 2 + rng.Intn(cfg.MaxChainLen-1)
			prev := u
			pu, pv := g.Node(u).Pt, g.Node(v).Pt
			for s := 1; s < parts; s++ {
				t := float64(s) / float64(parts)
				// Slight lateral wiggle so chains are not collinear.
				mid := pu.Lerp(pv, t)
				mid.X += (rng.Float64()*2 - 1) * 0.1 * spacing
				mid.Y += (rng.Float64()*2 - 1) * 0.1 * spacing
				nid := g.AddNode(mid)
				addSegment(prev, nid)
				prev = nid
			}
			addSegment(prev, v)
		} else {
			addSegment(u, v)
		}
	}

	ensureConnected(g)
	return g
}

// ensureConnected links any stray components to the first one with straight
// edges between representative nodes.
func ensureConnected(g *graph.Graph) {
	comp, n := g.ConnectedComponents()
	if n <= 1 {
		return
	}
	// Pick one representative per component.
	rep := make([]graph.NodeID, n)
	for i := range rep {
		rep[i] = graph.NoNode
	}
	for id := 0; id < g.NumNodes(); id++ {
		if rep[comp[id]] == graph.NoNode {
			rep[comp[id]] = graph.NodeID(id)
		}
	}
	for c := 1; c < n; c++ {
		u, v := rep[0], rep[c]
		w := g.Node(u).Pt.Dist(g.Node(v).Pt)
		if w <= 1e-9 {
			w = 1e-9
		}
		g.AddEdge(u, v, w)
	}
}

// unionFind is a minimal disjoint-set structure.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }
