package graph

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"roadknn/internal/geom"
)

// edgeModel mirrors the live edge set of an edited graph, keyed by the
// graph's assigned edge ids, so tests can rebuild a from-scratch reference
// graph with identical logical content.
type edgeModel map[EdgeID]struct {
	u, v NodeID
	w    float64
}

// rebuild constructs a fresh graph holding exactly the model's live edges
// (fresh sequential ids) over the same node set.
func (m edgeModel) rebuild(g *Graph) *Graph {
	r := New(g.NumNodes(), len(m))
	for i := 0; i < g.NumNodes(); i++ {
		r.AddNode(g.Node(NodeID(i)).Pt)
	}
	ids := make([]EdgeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := m[id]
		r.AddEdge(e.u, e.v, e.w)
	}
	return r
}

// neighborSet is node n's adjacency as a sorted multiset of
// (opposite endpoint, weight bits), id-independent.
func neighborSet(g *Graph, n NodeID) [][2]uint64 {
	var out [][2]uint64
	for _, eid := range g.Incident(n) {
		e := g.Edge(eid)
		out = append(out, [2]uint64{uint64(e.Other(n)), math.Float64bits(e.W)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// assertOracleEqual checks the edited graph against the from-scratch
// rebuild: Validate passes (rows ascending, no tombstone listed), adjacency
// sets and Dijkstra distances are bit-equal.
func assertOracleEqual(t *testing.T, g, ref *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumLiveEdges() != ref.NumLiveEdges() {
		t.Fatalf("live edges: got %d, rebuild has %d", g.NumLiveEdges(), ref.NumLiveEdges())
	}
	for n := 0; n < g.NumNodes(); n++ {
		got, want := neighborSet(g, NodeID(n)), neighborSet(ref, NodeID(n))
		if len(got) != len(want) {
			t.Fatalf("node %d: adjacency size %d, rebuild has %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d: adjacency[%d] = %v, rebuild has %v", n, i, got[i], want[i])
			}
		}
	}
	for _, src := range []NodeID{0, NodeID(g.NumNodes() / 2), NodeID(g.NumNodes() - 1)} {
		gd, _ := g.Dijkstra([]NodeID{src}, nil, math.Inf(1))
		rd, _ := ref.Dijkstra([]NodeID{src}, nil, math.Inf(1))
		for i := range gd {
			if math.Float64bits(gd[i]) != math.Float64bits(rd[i]) {
				t.Fatalf("dist(%d→%d) = %g, rebuild gives %g", src, i, gd[i], rd[i])
			}
		}
	}
}

// gridGraph builds a w×h grid with unit-ish weights.
func gridGraph(w, h int) (*Graph, edgeModel) {
	g := New(w*h, 2*w*h)
	m := edgeModel{}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	at := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				wgt := 1 + 0.01*float64(at(x, y))
				id := g.AddEdge(at(x, y), at(x+1, y), wgt)
				m[id] = struct {
					u, v NodeID
					w    float64
				}{at(x, y), at(x+1, y), wgt}
			}
			if y+1 < h {
				wgt := 1 + 0.02*float64(at(x, y))
				id := g.AddEdge(at(x, y), at(x, y+1), wgt)
				m[id] = struct {
					u, v NodeID
					w    float64
				}{at(x, y), at(x, y+1), wgt}
			}
		}
	}
	return g, m
}

func TestOverlayBasics(t *testing.T) {
	g, _ := gridGraph(3, 3)
	if !g.EdgeAlive(0) {
		t.Fatal("edge 0 should be alive")
	}
	before := g.NumEdges()
	e0 := g.Edge(0)
	u, v := e0.U, e0.V
	degU := g.Degree(u)

	g.RemoveEdge(0)
	if g.EdgeAlive(0) {
		t.Fatal("removed edge still alive")
	}
	if containsEdge(g.Incident(u), 0) || containsEdge(g.Incident(v), 0) {
		t.Fatal("Incident yields a tombstoned edge")
	}
	if g.Degree(u) != degU-1 {
		t.Fatalf("Degree(u) = %d, want %d", g.Degree(u), degU-1)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after remove: %v", err)
	}

	// LIFO id reuse keeps the id space dense.
	id := g.AddEdge(u, v, 2.5)
	if id != 0 {
		t.Fatalf("reused id = %d, want 0", id)
	}
	if g.NumEdges() != before {
		t.Fatalf("NumEdges = %d, want %d (id space must not grow on reuse)", g.NumEdges(), before)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after reuse: %v", err)
	}
	if g.Edge(0).W != 2.5 {
		t.Fatalf("reused edge weight = %g, want 2.5", g.Edge(0).W)
	}
}

func TestOverlayAddRemoveWithinOneWindow(t *testing.T) {
	g, m := gridGraph(4, 4)
	// Insert, remove, and re-insert (reusing the id) back to back: the rows
	// must neither drop nor duplicate entries.
	id := g.AddEdge(0, 5, 3)
	g.RemoveEdge(id)
	id2 := g.AddEdge(1, 4, 4)
	if id2 != id {
		t.Fatalf("expected LIFO reuse of %d, got %d", id, id2)
	}
	m[id2] = struct {
		u, v NodeID
		w    float64
	}{1, 4, 4}
	assertOracleEqual(t, g, m.rebuild(g))
}

func TestOverlayAddNodeFrozen(t *testing.T) {
	g, m := gridGraph(3, 3)
	n := g.AddNode(geom.Point{X: 5, Y: 5})
	if g.Degree(n) != 0 {
		t.Fatalf("fresh node degree = %d", g.Degree(n))
	}
	id := g.AddEdge(n, 0, 1.5)
	m[id] = struct {
		u, v NodeID
		w    float64
	}{n, 0, 1.5}
	assertOracleEqual(t, g, m.rebuild(g))
}

// TestOverlayRandomChurn drives long random edit sequences with interleaved
// checks of the edited graph against the rebuild-from-scratch oracle — the
// unit-test twin of FuzzTopologyEdits.
func TestOverlayRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		g, m := gridGraph(5, 5)
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // add
				u := NodeID(rng.Intn(g.NumNodes()))
				v := NodeID(rng.Intn(g.NumNodes()))
				if u == v {
					continue
				}
				w := 0.1 + rng.Float64()*5
				id := g.AddEdge(u, v, w)
				m[id] = struct {
					u, v NodeID
					w    float64
				}{u, v, w}
			case op < 8: // remove a random live edge
				if len(m) == 0 {
					continue
				}
				ids := make([]EdgeID, 0, len(m))
				for id := range m {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				id := ids[rng.Intn(len(ids))]
				g.RemoveEdge(id)
				delete(m, id)
			case op < 9: // weight change
				if len(m) == 0 {
					continue
				}
				ids := make([]EdgeID, 0, len(m))
				for id := range m {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				id := ids[rng.Intn(len(ids))]
				w := 0.1 + rng.Float64()*5
				g.SetWeight(id, w)
				e := m[id]
				e.w = w
				m[id] = e
			default: // check
				assertOracleEqual(t, g, m.rebuild(g))
			}
		}
		assertOracleEqual(t, g, m.rebuild(g))
	}
}

// FuzzTopologyEdits feeds arbitrary edit scripts to a graph and cross-checks
// it at every check op, and at the end, against a from-scratch rebuild:
// adjacency sets and Dijkstra distances must be bit-equal.
func FuzzTopologyEdits(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 0, 0, 3, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 3, 9, 3, 0, 0, 1, 1, 1, 2, 0, 0})
	f.Add([]byte{2, 5, 5, 0, 2, 7, 1, 2, 2, 3, 3, 3, 0, 11, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		g, m := gridGraph(4, 4)
		nn := g.NumNodes()
		liveIDs := func() []EdgeID {
			ids := make([]EdgeID, 0, len(m))
			for id := range m {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids
		}
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], int(script[i+1]), int(script[i+2])
			switch op % 4 {
			case 0: // add
				u, v := NodeID(a%nn), NodeID(b%nn)
				if u == v {
					continue
				}
				w := 0.5 + float64(a%7)*0.25
				id := g.AddEdge(u, v, w)
				m[id] = struct {
					u, v NodeID
					w    float64
				}{u, v, w}
			case 1: // remove
				ids := liveIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[(a*256+b)%len(ids)]
				g.RemoveEdge(id)
				delete(m, id)
			case 2: // weight change
				ids := liveIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[(a*256+b)%len(ids)]
				w := 0.25 + float64(b%9)*0.5
				g.SetWeight(id, w)
				e := m[id]
				e.w = w
				m[id] = e
			case 3: // check
				assertOracleEqual(t, g, m.rebuild(g))
			}
		}
		assertOracleEqual(t, g, m.rebuild(g))
	})
}

// TestConcurrentReadsNeverWrite reads a graph built with New/AddEdge alone
// (nothing prepares it for sharing) from four goroutines at once: under
// -race any write on the read path — a lazily built index, a cache —
// fails it.
func TestConcurrentReadsNeverWrite(t *testing.T) {
	const side = 6
	g := New(side*side, 2*side*side)
	for i := 0; i < side*side; i++ {
		g.AddNode(geom.Point{X: float64(i % side), Y: float64(i / side)})
	}
	for i := 0; i < side*side; i++ {
		if i%side+1 < side {
			g.AddEdge(NodeID(i), NodeID(i+1), 1+0.01*float64(i))
		}
		if i+side < side*side {
			g.AddEdge(NodeID(i), NodeID(i+side), 1+0.02*float64(i))
		}
	}
	g.RemoveEdge(3)
	id := g.AddEdge(7, 28, 1.5) // reuses id 3, below its rows' other ids
	want, _ := g.Dijkstra([]NodeID{0}, nil, math.Inf(1))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < g.NumNodes(); n++ {
				if d, row := g.Degree(NodeID(n)), g.Incident(NodeID(n)); d != len(row) {
					t.Errorf("node %d: Degree %d, Incident lists %d", n, d, len(row))
				}
			}
			if !containsEdge(g.Incident(28), id) {
				t.Errorf("edge %d missing from node 28's row", id)
			}
			got, _ := g.Dijkstra([]NodeID{0}, nil, math.Inf(1))
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("dist(0→%d) = %g, want %g", i, got[i], want[i])
				}
			}
		}()
	}
	wg.Wait()
}
