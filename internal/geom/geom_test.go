package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if !almostEq(a.Dist(b), 5) {
		t.Fatalf("Dist = %g, want 5", a.Dist(b))
	}
}

func TestLerp(t *testing.T) {
	a := Point{0, 0}
	b := Point{10, 20}
	mid := a.Lerp(b, 0.5)
	if !almostEq(mid.X, 5) || !almostEq(mid.Y, 10) {
		t.Fatalf("Lerp(0.5) = %+v", mid)
	}
	if a.Lerp(b, 0) != a || a.Lerp(b, 1) != b {
		t.Fatal("Lerp endpoints wrong")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{2, 3}, Point{0, 1})
	if r.Min != (Point{0, 1}) || r.Max != (Point{2, 3}) {
		t.Fatalf("NewRect did not normalize corners: %+v", r)
	}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{1, 2}, true},
		{Point{0, 1}, true}, // boundary
		{Point{2, 3}, true}, // boundary
		{Point{-0.1, 2}, false},
		{Point{1, 3.1}, false},
	}
	for _, c := range cases {
		if r.Contains(c.p) != c.want {
			t.Fatalf("Contains(%+v) = %v, want %v", c.p, !c.want, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{2, 2})
	if !a.Intersects(NewRect(Point{1, 1}, Point{3, 3})) {
		t.Fatal("overlapping rects reported disjoint")
	}
	if !a.Intersects(NewRect(Point{2, 0}, Point{4, 2})) {
		t.Fatal("edge-touching rects reported disjoint")
	}
	if a.Intersects(NewRect(Point{3, 3}, Point{4, 4})) {
		t.Fatal("disjoint rects reported intersecting")
	}
}

func TestRectQuadrants(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{4, 4})
	want := []Rect{
		NewRect(Point{0, 0}, Point{2, 2}),
		NewRect(Point{2, 0}, Point{4, 2}),
		NewRect(Point{0, 2}, Point{2, 4}),
		NewRect(Point{2, 2}, Point{4, 4}),
	}
	for i := 0; i < 4; i++ {
		if got := r.Quadrant(i); got != want[i] {
			t.Fatalf("Quadrant(%d) = %+v, want %+v", i, got, want[i])
		}
	}
}

func TestSegmentClosestFrac(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 0.5},
		{Point{-5, 0}, 0}, // clamped before A
		{Point{15, 1}, 1}, // clamped after B
		{Point{2, -7}, 0.2},
	}
	for _, c := range cases {
		if got := s.ClosestFrac(c.p); !almostEq(got, c.want) {
			t.Fatalf("ClosestFrac(%+v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := Segment{Point{1, 1}, Point{1, 1}}
	if got := s.ClosestFrac(Point{5, 5}); got != 0 {
		t.Fatalf("degenerate ClosestFrac = %g, want 0", got)
	}
	if !almostEq(s.DistTo(Point{4, 5}), 5) {
		t.Fatalf("degenerate DistTo = %g, want 5", s.DistTo(Point{4, 5}))
	}
}

func TestSegmentDistTo(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	if !almostEq(s.DistTo(Point{5, 3}), 3) {
		t.Fatalf("DistTo above middle = %g, want 3", s.DistTo(Point{5, 3}))
	}
	if !almostEq(s.DistTo(Point{-3, 4}), 5) {
		t.Fatalf("DistTo beyond endpoint = %g, want 5", s.DistTo(Point{-3, 4}))
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	cases := []struct {
		s    Segment
		want bool
	}{
		{Segment{Point{1, 1}, Point{5, 5}}, true},    // endpoint inside
		{Segment{Point{-1, 1}, Point{3, 1}}, true},   // crosses through
		{Segment{Point{-1, -1}, Point{3, 3}}, true},  // diagonal through corners
		{Segment{Point{3, 0}, Point{3, 2}}, false},   // parallel outside
		{Segment{Point{-1, 3}, Point{3, 3}}, false},  // above
		{Segment{Point{2, -1}, Point{2, 3}}, true},   // along right boundary
		{Segment{Point{-2, 1}, Point{-1, 1}}, false}, // short, left of rect
	}
	for i, c := range cases {
		if got := c.s.IntersectsRect(r); got != c.want {
			t.Fatalf("case %d: IntersectsRect = %v, want %v", i, got, c.want)
		}
	}
}

// TestQuickClosestIsMinimum verifies via random sampling that ClosestFrac
// indeed minimizes the distance over the segment.
func TestQuickClosestIsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Segment{Point{ax, ay}, Point{bx, by}}
		p := Point{px, py}
		best := s.DistTo(p)
		for i := 0; i <= 100; i++ {
			if s.At(float64(i)/100).Dist(p) < best-1e-9 {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200; i++ {
		if !f(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10,
			rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10) {
			t.Fatal("ClosestFrac is not the minimizer")
		}
	}
}

// TestQuickRectSegmentConsistency: if a segment sample point is inside the
// rect, IntersectsRect must be true.
func TestQuickRectSegmentConsistency(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy, tf float64) bool {
		r := NewRect(Point{cx, cy}, Point{dx, dy})
		s := Segment{Point{ax, ay}, Point{bx, by}}
		tt := math.Abs(math.Mod(tf, 1))
		if r.Contains(s.At(tt)) && !s.IntersectsRect(r) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
