// Package geom provides the small set of 2-D geometric primitives used by
// the road-network structures: points, axis-aligned rectangles and line
// segments, together with the distance computations needed to snap arbitrary
// coordinates onto network edges.
package geom

import "math"

// Point is a location in the 2-D workspace.
type Point struct {
	X, Y float64
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Dist returns the Euclidean distance between p and o.
func (p Point) Dist(o Point) float64 {
	return math.Hypot(p.X-o.X, p.Y-o.Y)
}

// Lerp returns the point a fraction t of the way from p to o.
// t=0 yields p, t=1 yields o; t outside [0,1] extrapolates.
func (p Point) Lerp(o Point, t float64) Point {
	return Point{p.X + (o.X-p.X)*t, p.Y + (o.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner; a Rect with Min==Max is a degenerate point.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by two arbitrary corner points.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether r and o share at least a boundary point.
func (r Rect) Intersects(o Rect) bool {
	return r.Min.X <= o.Max.X && r.Max.X >= o.Min.X &&
		r.Min.Y <= o.Max.Y && r.Max.Y >= o.Min.Y
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Quadrant returns the i-th quadrant of r (0=SW, 1=SE, 2=NW, 3=NE).
func (r Rect) Quadrant(i int) Rect {
	c := r.Center()
	switch i {
	case 0:
		return Rect{r.Min, c}
	case 1:
		return Rect{Point{c.X, r.Min.Y}, Point{r.Max.X, c.Y}}
	case 2:
		return Rect{Point{r.Min.X, c.Y}, Point{c.X, r.Max.Y}}
	default:
		return Rect{c, r.Max}
	}
}

// Expand returns r grown by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{Point{r.Min.X - m, r.Min.Y - m}, Point{r.Max.X + m, r.Max.Y + m}}
}

// Segment is a straight line segment between two points.
type Segment struct {
	A, B Point
}

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Bounds returns the bounding rectangle of s.
func (s Segment) Bounds() Rect { return NewRect(s.A, s.B) }

// At returns the point a fraction t along s from A to B.
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// ClosestFrac returns the fraction t in [0,1] such that s.At(t) is the point
// of s closest to p.
func (s Segment) ClosestFrac(p Point) float64 {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	den := dx*dx + dy*dy
	if den == 0 {
		return 0
	}
	t := ((p.X-s.A.X)*dx + (p.Y-s.A.Y)*dy) / den
	return clamp01(t)
}

// DistTo returns the Euclidean distance from p to the closest point of s.
func (s Segment) DistTo(p Point) float64 {
	return s.At(s.ClosestFrac(p)).Dist(p)
}

// IntersectsRect reports whether any point of s lies inside or on r.
func (s Segment) IntersectsRect(r Rect) bool {
	if r.Contains(s.A) || r.Contains(s.B) {
		return true
	}
	if !s.Bounds().Intersects(r) {
		return false
	}
	// The segment may still cross the rectangle; test against all four sides.
	corners := [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
	for i := 0; i < 4; i++ {
		if segmentsCross(s.A, s.B, corners[i], corners[(i+1)%4]) {
			return true
		}
	}
	return false
}

// segmentsCross reports whether segments ab and cd share at least one point.
func segmentsCross(a, b, c, d Point) bool {
	d1 := cross(c, d, a)
	d2 := cross(c, d, b)
	d3 := cross(a, b, c)
	d4 := cross(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(c, d, a)) ||
		(d2 == 0 && onSegment(c, d, b)) ||
		(d3 == 0 && onSegment(a, b, c)) ||
		(d4 == 0 && onSegment(a, b, d))
}

// cross returns the z-component of (b-a) x (p-a).
func cross(a, b, p Point) float64 {
	return (b.X-a.X)*(p.Y-a.Y) - (b.Y-a.Y)*(p.X-a.X)
}

// onSegment reports whether p, known to be collinear with ab, lies on ab.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}
