package gen

import (
	"math"
	"math/rand"
	"testing"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

func TestRoadNetworkSizeAndValidity(t *testing.T) {
	for _, target := range []int{100, 1000, 10000} {
		g := SanFranciscoLike(target, 42)
		if err := g.Validate(); err != nil {
			t.Fatalf("target %d: Validate: %v", target, err)
		}
		got := g.NumEdges()
		if got < target/2 || got > target*2 {
			t.Fatalf("target %d edges: generated %d (off by more than 2x)", target, got)
		}
		if _, n := g.ConnectedComponents(); n != 1 {
			t.Fatalf("target %d: %d components, want 1", target, n)
		}
	}
}

func TestRoadNetworkDeterministic(t *testing.T) {
	a := SanFranciscoLike(500, 7)
	b := SanFranciscoLike(500, 7)
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different sizes")
	}
	for i := 0; i < a.NumEdges(); i++ {
		ea, eb := a.Edge(graph.EdgeID(i)), b.Edge(graph.EdgeID(i))
		if ea.U != eb.U || ea.V != eb.V || ea.W != eb.W {
			t.Fatalf("edge %d differs between runs", i)
		}
	}
	c := SanFranciscoLike(500, 8)
	if c.NumEdges() == a.NumEdges() && c.NumNodes() == a.NumNodes() {
		// Same size is possible, but identical weights are not plausible.
		same := true
		for i := 0; i < a.NumEdges() && same; i++ {
			same = a.Edge(graph.EdgeID(i)).W == c.Edge(graph.EdgeID(i)).W
		}
		if same {
			t.Fatal("different seeds produced identical networks")
		}
	}
}

func TestRoadNetworkHasChains(t *testing.T) {
	g := SanFranciscoLike(2000, 3)
	deg2 := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(graph.NodeID(i)) == 2 {
			deg2++
		}
	}
	if frac := float64(deg2) / float64(g.NumNodes()); frac < 0.1 {
		t.Fatalf("degree-2 nodes fraction = %.2f, want >= 0.1 (need chains for GMA)", frac)
	}
	s := roadnet.DecomposeSequences(g)
	if err := s.Validate(g); err != nil {
		t.Fatalf("sequence validation: %v", err)
	}
	multi := 0
	for i := range s.Seqs {
		if len(s.Seqs[i].Edges) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-edge sequences generated")
	}
}

func TestWeightsEqualLengths(t *testing.T) {
	g := SanFranciscoLike(300, 5)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if e.W != graph.QuantiseWeight(max(e.Length, 1e-9)) {
			t.Fatalf("edge %d: weight %g != length %g rounded to the quantum", i, e.W, e.Length)
		}
	}
}

func TestOldenburgLikeSize(t *testing.T) {
	g := OldenburgLike(1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if e := g.NumEdges(); e < 3500 || e > 14000 {
		t.Fatalf("edges = %d, want ~7035", e)
	}
}

func TestPlaceUniform(t *testing.T) {
	g := SanFranciscoLike(500, 2)
	net := roadnet.NewNetwork(g)
	rng := rand.New(rand.NewSource(9))
	pos := Place(net, 1000, Uniform, 0, rng)
	if len(pos) != 1000 {
		t.Fatalf("len = %d", len(pos))
	}
	edgesSeen := map[graph.EdgeID]bool{}
	for _, p := range pos {
		if p.Frac < 0 || p.Frac > 1 {
			t.Fatalf("bad frac %g", p.Frac)
		}
		edgesSeen[p.Edge] = true
	}
	if len(edgesSeen) < 300 {
		t.Fatalf("uniform placement hit only %d distinct edges", len(edgesSeen))
	}
}

func TestPlaceGaussianIsConcentrated(t *testing.T) {
	g := SanFranciscoLike(2000, 2)
	net := roadnet.NewNetwork(g)
	rng := rand.New(rand.NewSource(9))
	pos := Place(net, 500, Gaussian, 0.1, rng)
	b := net.SI.Bounds()
	c := b.Center()
	ext := math.Max(b.Width(), b.Height())
	within := 0
	for _, p := range pos {
		if net.Point(p).Dist(c) < 0.3*ext {
			within++
		}
	}
	if frac := float64(within) / float64(len(pos)); frac < 0.8 {
		t.Fatalf("only %.0f%% of Gaussian placements near center", frac*100)
	}
}

func TestBrinkhoffMoversStayOnNetwork(t *testing.T) {
	g := SanFranciscoLike(800, 4)
	net := roadnet.NewNetwork(g)
	sim := NewBrinkhoff(net, 200, 11)
	if sim.Count() != 200 {
		t.Fatalf("Count = %d", sim.Count())
	}
	totalMoves := 0
	for ts := 0; ts < 20; ts++ {
		moves := sim.Step(1.0)
		totalMoves += len(moves)
		for _, m := range moves {
			if m.New.Frac < 0 || m.New.Frac > 1 {
				t.Fatalf("ts %d: bad frac %g", ts, m.New.Frac)
			}
			if int(m.New.Edge) >= g.NumEdges() || m.New.Edge < 0 {
				t.Fatalf("ts %d: bad edge %d", ts, m.New.Edge)
			}
			if sim.Position(m.Index) != m.New {
				t.Fatal("reported move does not match simulator state")
			}
		}
	}
	if totalMoves < 200*20/2 {
		t.Fatalf("movers barely moved: %d moves in 20 ts", totalMoves)
	}
}

func TestBrinkhoffAgilityZero(t *testing.T) {
	g := SanFranciscoLike(300, 4)
	net := roadnet.NewNetwork(g)
	sim := NewBrinkhoff(net, 50, 11)
	if moves := sim.Step(0); len(moves) != 0 {
		t.Fatalf("agility 0 produced %d moves", len(moves))
	}
}

func TestBrinkhoffDeterministic(t *testing.T) {
	g := SanFranciscoLike(300, 4)
	run := func() []roadnet.Position {
		net := roadnet.NewNetwork(g)
		sim := NewBrinkhoff(net, 30, 5)
		for ts := 0; ts < 10; ts++ {
			sim.Step(0.8)
		}
		out := make([]roadnet.Position, sim.Count())
		for i := range out {
			out[i] = sim.Position(i)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mover %d diverged between identical runs", i)
		}
	}
}
