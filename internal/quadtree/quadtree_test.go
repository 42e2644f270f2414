package quadtree

import (
	"math"
	"math/rand"
	"testing"

	"roadknn/internal/geom"
)

func unitBounds() geom.Rect {
	return geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 100})
}

func randSeg(rng *rand.Rand) geom.Segment {
	a := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	// Short road-like segments.
	b := geom.Point{X: a.X + rng.NormFloat64()*3, Y: a.Y + rng.NormFloat64()*3}
	b.X = math.Min(math.Max(b.X, 0), 100)
	b.Y = math.Min(math.Max(b.Y, 0), 100)
	return geom.Segment{A: a, B: b}
}

func TestEmptyTree(t *testing.T) {
	tr := New(unitBounds())
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if _, _, ok := tr.Nearest(geom.Point{X: 50, Y: 50}); ok {
		t.Fatal("Nearest on empty tree returned ok")
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	tr := New(unitBounds())
	s := geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}
	tr.Insert(1, s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate id")
		}
	}()
	tr.Insert(1, s)
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := New(unitBounds())
	segs := make([]geom.Segment, 300)
	for i := range segs {
		segs[i] = randSeg(rng)
		tr.Insert(int32(i), segs[i])
	}
	for trial := 0; trial < 200; trial++ {
		p := geom.Point{X: rng.Float64()*120 - 10, Y: rng.Float64()*120 - 10}
		id, dist, ok := tr.Nearest(p)
		if !ok {
			t.Fatal("Nearest returned !ok on populated tree")
		}
		bestDist := math.Inf(1)
		for _, s := range segs {
			if d := s.DistTo(p); d < bestDist {
				bestDist = d
			}
		}
		if math.Abs(dist-bestDist) > 1e-9 {
			t.Fatalf("trial %d at %+v: Nearest dist = %g, brute force = %g", trial, p, dist, bestDist)
		}
		if d := segs[id].DistTo(p); math.Abs(d-dist) > 1e-9 {
			t.Fatalf("returned id %d has dist %g, reported %g", id, d, dist)
		}
	}
}

func TestSplitKeepsAllIncidences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New(unitBounds())
	tr.splitThreshold, tr.maxDepth = 2, 10
	for i := 0; i < 100; i++ {
		tr.Insert(int32(i), randSeg(rng))
	}
	st := tr.Stats()
	if st.Leaves < 4 {
		t.Fatalf("tree never split: %+v", st)
	}
	if st.MaxDepth > 10 {
		t.Fatalf("depth %d exceeds max", st.MaxDepth)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	tr := New(unitBounds())
	tr.splitThreshold, tr.maxDepth = 1, 3
	// Insert many nearly-identical segments that all fall in one point; the
	// depth cap must stop recursion even though the threshold is exceeded.
	for i := 0; i < 50; i++ {
		tr.Insert(int32(i), geom.Segment{
			A: geom.Point{X: 10, Y: 10},
			B: geom.Point{X: 10.001, Y: 10.001},
		})
	}
	if st := tr.Stats(); st.MaxDepth > 3 {
		t.Fatalf("MaxDepth = %d, want <= 3", st.MaxDepth)
	}
	// Lookups must still find the segments.
	if tr.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tr.Len())
	}
	if id, dist, ok := tr.Nearest(geom.Point{X: 10, Y: 10}); !ok || id < 0 || id >= 50 || dist != 0 {
		t.Fatalf("Nearest = (%d, %g, %v), want a segment at distance 0", id, dist, ok)
	}
}

func TestNearestFarOutsideBounds(t *testing.T) {
	tr := New(unitBounds())
	tr.Insert(7, geom.Segment{A: geom.Point{X: 50, Y: 50}, B: geom.Point{X: 60, Y: 50}})
	id, dist, ok := tr.Nearest(geom.Point{X: 1000, Y: 50})
	if !ok || id != 7 {
		t.Fatalf("Nearest = (%d, %v, %v)", id, dist, ok)
	}
	if math.Abs(dist-940) > 1e-9 {
		t.Fatalf("dist = %g, want 940", dist)
	}
}

func BenchmarkNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New(unitBounds())
	for i := 0; i < 10000; i++ {
		tr.Insert(int32(i), randSeg(rng))
	}
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(pts[i&1023])
	}
}
