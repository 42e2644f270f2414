// Package quadtree implements a PMR quadtree over line segments, the spatial
// index SI of the paper (Hoel & Samet, "Efficient processing of spatial
// queries in line segment databases", SSD 1991).
//
// Each leaf quad stores the ids of the segments intersecting it. Following
// the PMR splitting rule, when an insertion makes a leaf exceed the split
// threshold the leaf is split once (not recursively), bounding the tree
// depth in practice; a hard MaxDepth is enforced as well.
//
// The index answers one question for the monitoring server: Nearest(p),
// the segment closest to p, used to snap arbitrary coordinates (e.g.
// Gaussian-sampled locations) onto the network.
package quadtree

import (
	"math"

	"roadknn/internal/geom"
)

// DefaultSplitThreshold is the leaf occupancy that triggers a PMR split.
const DefaultSplitThreshold = 8

// DefaultMaxDepth bounds the tree depth regardless of occupancy.
const DefaultMaxDepth = 16

// Tree is a PMR quadtree over segments identified by int32 ids.
// The zero value is not usable; call New.
type Tree struct {
	root           *node
	bounds         geom.Rect
	segs           map[int32]geom.Segment
	splitThreshold int
	maxDepth       int
}

type node struct {
	rect     geom.Rect
	children *[4]*node // nil for leaves
	items    []int32   // segment ids, leaves only
	depth    int
}

// New returns an empty PMR quadtree covering bounds.
func New(bounds geom.Rect) *Tree {
	return &Tree{
		root:           &node{rect: bounds},
		bounds:         bounds,
		segs:           make(map[int32]geom.Segment),
		splitThreshold: DefaultSplitThreshold,
		maxDepth:       DefaultMaxDepth,
	}
}

// Len returns the number of indexed segments.
func (t *Tree) Len() int { return len(t.segs) }

// Bounds returns the workspace rectangle the tree covers.
func (t *Tree) Bounds() geom.Rect { return t.bounds }

// Insert adds segment s under the given id. Inserting an id twice panics:
// network edges are immutable in geometry, so duplicate insertion indicates
// a bug in the caller.
func (t *Tree) Insert(id int32, s geom.Segment) {
	if _, dup := t.segs[id]; dup {
		panic("quadtree: duplicate segment id")
	}
	t.segs[id] = s
	t.insert(t.root, id, s)
}

func (t *Tree) insert(n *node, id int32, s geom.Segment) {
	if n.children != nil {
		for _, c := range n.children {
			if s.IntersectsRect(c.rect) {
				t.insert(c, id, s)
			}
		}
		return
	}
	n.items = append(n.items, id)
	// PMR rule: split once when the threshold is exceeded by an insertion.
	if len(n.items) > t.splitThreshold && n.depth < t.maxDepth {
		t.split(n)
	}
}

func (t *Tree) split(n *node) {
	var ch [4]*node
	for i := 0; i < 4; i++ {
		ch[i] = &node{rect: n.rect.Quadrant(i), depth: n.depth + 1}
	}
	for _, id := range n.items {
		s := t.segs[id]
		for _, c := range ch {
			if s.IntersectsRect(c.rect) {
				c.items = append(c.items, id)
			}
		}
	}
	n.items = nil
	n.children = &ch
}

// Remove deletes segment id from the index. Removing an unknown id panics:
// the caller (the road network) owns the edge lifecycle, so an unknown id
// indicates a bookkeeping bug. Leaves are not re-merged — the PMR structure
// only ever splits — but the freed slots are reused by later insertions.
func (t *Tree) Remove(id int32) {
	s, ok := t.segs[id]
	if !ok {
		panic("quadtree: Remove of unknown segment id")
	}
	delete(t.segs, id)
	t.remove(t.root, id, s)
}

func (t *Tree) remove(n *node, id int32, s geom.Segment) {
	if n.children != nil {
		for _, c := range n.children {
			if s.IntersectsRect(c.rect) {
				t.remove(c, id, s)
			}
		}
		return
	}
	for i, x := range n.items {
		if x == id {
			n.items[i] = n.items[len(n.items)-1]
			n.items = n.items[:len(n.items)-1]
			return
		}
	}
}

// Nearest returns the id of the segment closest to p (in Euclidean
// distance) and that distance. ok is false when the tree is empty.
//
// The search is best-first over quads ordered by their distance to p, so it
// visits only the neighborhood of p on realistic road networks.
func (t *Tree) Nearest(p geom.Point) (id int32, dist float64, ok bool) {
	if len(t.segs) == 0 {
		return 0, 0, false
	}
	best := math.Inf(1)
	var bestID int32
	found := false
	// Plain recursive best-first with pruning on quad distance.
	var visit func(n *node)
	visit = func(n *node) {
		if rectDist(n.rect, p) >= best {
			return
		}
		if n.children == nil {
			for _, sid := range n.items {
				d := t.segs[sid].DistTo(p)
				if d < best || (d == best && (!found || sid < bestID)) {
					best, bestID, found = d, sid, true
				}
			}
			return
		}
		// Visit children nearest-first for effective pruning.
		order := [4]int{0, 1, 2, 3}
		var dists [4]float64
		for i, c := range n.children {
			dists[i] = rectDist(c.rect, p)
		}
		for i := 1; i < 4; i++ {
			for j := i; j > 0 && dists[order[j]] < dists[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, i := range order {
			visit(n.children[i])
		}
	}
	visit(t.root)
	if !found {
		// p may be far outside the bounds with pruning never relaxed; fall
		// back to a scan (cannot happen when best starts at +Inf, but kept
		// for defense in depth).
		for sid, s := range t.segs {
			d := s.DistTo(p)
			if d < best {
				best, bestID, found = d, sid, true
			}
		}
	}
	return bestID, best, found
}

// rectDist returns the Euclidean distance from p to rectangle r (0 inside).
func rectDist(r geom.Rect, p geom.Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// CellIndex returns the index in [0, 4^depth) of the fixed-depth quadrant
// cell of the tree's bounds containing p; points outside the bounds land in
// the nearest boundary cell. Cells follow the same quadrant geometry the
// PMR splits use (geom.Rect.Quadrant). The adaptive planner keys its
// per-region statistics and placements by this index.
func (t *Tree) CellIndex(p geom.Point, depth int) int {
	r := t.bounds
	idx := 0
	for d := 0; d < depth; d++ {
		c := r.Center()
		q := 0
		if p.X > c.X {
			q |= 1
		}
		if p.Y > c.Y {
			q |= 2
		}
		idx = idx<<2 | q
		r = r.Quadrant(q)
	}
	return idx
}

// Stats describes the shape of the tree, for diagnostics and tests.
type Stats struct {
	Leaves   int
	MaxDepth int
	MaxItems int // largest leaf occupancy
	Entries  int // total (segment, leaf) incidences
}

// Stats computes shape statistics by walking the tree.
func (t *Tree) Stats() Stats {
	var st Stats
	var walk func(n *node)
	walk = func(n *node) {
		if n.children == nil {
			st.Leaves++
			st.Entries += len(n.items)
			if len(n.items) > st.MaxItems {
				st.MaxItems = len(n.items)
			}
			if n.depth > st.MaxDepth {
				st.MaxDepth = n.depth
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return st
}
