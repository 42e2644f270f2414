package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// ez is a placeholder edge for candidate-store tests.
const ez graph.EdgeID = 0

func newCandStore(k int) *candStore {
	c := &candStore{}
	c.reset(k)
	return c
}

func TestCandidateSetBasics(t *testing.T) {
	c := newCandStore(2)
	if !math.IsInf(c.kth(), 1) {
		t.Fatal("empty set kth should be +Inf")
	}
	c.add(1, 5, ez)
	c.add(2, 3, ez)
	if got := c.kth(); got != 5 {
		t.Fatalf("kth = %g, want 5", got)
	}
	c.add(3, 1, ez)
	if got := c.kth(); got != 3 {
		t.Fatalf("kth after third insert = %g, want 3", got)
	}
	res, changed := c.finalize()
	if len(res) != 2 || res[0].Obj != 3 || res[1].Obj != 2 || !changed {
		t.Fatalf("finalize = %v, %v", res, changed)
	}
	// The third stays in reserve until the owner says how far it has seen.
	if !c.contains(1) {
		t.Fatal("reserve entry dropped below an unbounded cover")
	}
	c.lowerCover(4)
	if _, changed := c.finalize(); changed || c.contains(1) || c.len() != 2 {
		t.Fatalf("after lowerCover(4): changed %v, contains(1) %v, len %d", changed, c.contains(1), c.len())
	}
}

func TestCandidateSetDedupKeepsMin(t *testing.T) {
	c := newCandStore(3)
	c.add(7, 10, ez)
	c.add(7, 4, ez) // shorter path to the same object (Fig. 3b)
	c.add(7, 8, ez) // longer again: ignored
	res, _ := c.finalize()
	if len(res) != 1 || res[0].Dist != 4 {
		t.Fatalf("finalize = %v, want single entry dist 4", res)
	}
}

func TestCandidateSetRejectsBeyondCapacity(t *testing.T) {
	c := newCandStore(1)
	for i := 0; i < reserveCap(1); i++ {
		if !c.add(roadnet.ObjectID(i), float64(i), ez) {
			t.Fatalf("candidate %d within capacity rejected", i)
		}
	}
	if !math.IsInf(c.cover, 1) {
		t.Fatalf("cover = %g before any drop", c.cover)
	}
	far := float64(reserveCap(1)) + 3
	if c.add(100, far, ez) || c.contains(100) {
		t.Fatal("candidate beyond a full store accepted")
	}
	if c.cover != far {
		t.Fatalf("cover = %g after rejecting at %g", c.cover, far)
	}
	// A closer one pushes the farthest out, and cover down to it.
	last := float64(reserveCap(1) - 1)
	if !c.add(101, 0.5, ez) || c.contains(roadnet.ObjectID(last)) || c.cover != last {
		t.Fatalf("eviction: contains(last) %v, cover %g, want %g", c.contains(roadnet.ObjectID(last)), c.cover, last)
	}
	if c.len() != reserveCap(1) || c.kth() != 0 {
		t.Fatalf("len %d, kth %g", c.len(), c.kth())
	}
}

func TestCandidateSetSetExactCanIncrease(t *testing.T) {
	c := newCandStore(2)
	c.add(1, 1, ez)
	c.add(2, 2, ez)
	c.setExact(1, 9, ez) // object moved away
	if got := c.kth(); got != 9 {
		t.Fatalf("kth = %g, want 9", got)
	}
	res, _ := c.finalize()
	if res[0].Obj != 2 || res[1].Obj != 1 {
		t.Fatalf("order after setExact = %v", res)
	}
}

func TestCandidateSetRemove(t *testing.T) {
	c := newCandStore(2)
	c.add(1, 1, ez)
	c.add(2, 2, ez)
	c.remove(1)
	if c.contains(1) || c.len() != 1 {
		t.Fatal("remove failed")
	}
	c.remove(42) // absent: no-op
	if !math.IsInf(c.kth(), 1) {
		t.Fatalf("kth with 1 of 2 = %g, want +Inf", c.kth())
	}
}

func TestCandidateSetTieBreakByID(t *testing.T) {
	c := newCandStore(2)
	c.add(9, 1, ez)
	c.add(3, 1, ez)
	c.add(5, 1, ez)
	res, _ := c.finalize()
	if res[0].Obj != 3 || res[1].Obj != 5 {
		t.Fatalf("tie order = %v, want objs 3,5", res)
	}
}

func TestCandidateSetReset(t *testing.T) {
	c := newCandStore(2)
	var prev []Neighbor
	c.prev = &prev // a tracking owner's buffer
	c.add(1, 1, ez)
	c.finalize()
	c.lowerCover(7)
	c.reset(3)
	if c.len() != 0 || c.contains(1) || !math.IsInf(c.cover, 1) {
		t.Fatal("reset did not clear")
	}
	if c.k != 3 {
		t.Fatalf("k = %d, want 3", c.k)
	}
	// The previous result survives a reset for a tracking owner's change
	// report.
	c.add(1, 1, ez)
	if res, changed := c.finalize(); changed || len(res) != 1 {
		t.Fatalf("same result after reset: %v, changed %v", res, changed)
	}
}

// TestCandidateStoreTrackedChange holds the change report to the result
// the previous finalize returned, whatever the store went through since: a
// tracking store keeps that result from before its first write below it,
// not from before a later write, and sees a result rebuilt to the same
// keys as unchanged; an untracked store reports every written result.
func TestCandidateStoreTrackedChange(t *testing.T) {
	var prev []Neighbor
	tracked, untracked := newCandStore(2), newCandStore(2)
	tracked.prev = &prev
	for _, c := range []*candStore{tracked, untracked} {
		c.add(1, 1, ez)
		c.add(2, 2, ez)
		c.add(3, 3, ez)
		c.finalize()
		c.remove(2) // the first write below the result's end, at rank 1
		c.remove(1) // a second one, lower: the saved result must not follow
		c.add(1, 1, ez)
		c.add(2, 2, ez)
	}
	if res, changed := tracked.finalize(); changed || len(res) != 2 {
		t.Fatalf("tracked, same keys again: %v, changed %v", res, changed)
	}
	if _, changed := untracked.finalize(); !changed {
		t.Fatal("untracked, result written: changed false")
	}
	tracked.setExact(2, 0.5, ez) // a swap of the two
	if res, changed := tracked.finalize(); !changed || res[0].Obj != 2 {
		t.Fatalf("tracked, swapped: %v, changed %v", res, changed)
	}
}

// TestCandidateStoreCapacity holds a store's arrays to what it may use: a
// store offered far more objects than it keeps stops growing at
// reserveCap(k), a store re-targeted to a smaller k keeps the room it has
// and grows no further, and one whose k is huge grows with what it holds,
// not with k. The keys and their edges grow together.
func TestCandidateStoreCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newCandStore(50)
	for i := 0; i < 200; i++ {
		c.add(roadnet.ObjectID(i), rng.Float64()*100, ez)
	}
	if c.len() != reserveCap(50) || cap(c.nb) != reserveCap(50) || cap(c.edges) != reserveCap(50) {
		t.Fatalf("200 offers at k=50: len %d cap %d/%d, want all %d", c.len(), cap(c.nb), cap(c.edges), reserveCap(50))
	}
	c.reset(10)
	for i := 0; i < 200; i++ {
		c.add(roadnet.ObjectID(i), rng.Float64()*100, ez)
	}
	if c.len() != reserveCap(10) || cap(c.nb) != reserveCap(50) || cap(c.edges) != reserveCap(50) {
		t.Fatalf("200 offers re-targeted to k=10: len %d cap %d/%d, want %d and %d",
			c.len(), cap(c.nb), cap(c.edges), reserveCap(10), reserveCap(50))
	}

	huge := newCandStore(math.MaxInt32)
	for i := 0; i < 3; i++ {
		huge.add(roadnet.ObjectID(i), float64(i), ez)
	}
	if huge.len() != 3 || cap(huge.nb) > 16 || cap(huge.edges) > 16 {
		t.Fatalf("3 entries at k=MaxInt32: len %d cap %d/%d, want cap <= 16", huge.len(), cap(huge.nb), cap(huge.edges))
	}
}

// TestDistCode pins the membership code over the model's distances and the
// whole halves, ascending: the code never falls, and it is exact — decoding
// to the distance itself — exactly for the whole numbers of quanta below
// 2^30.
func TestDistCode(t *testing.T) {
	ds := append([]float64{0, graph.Quantum, 1.76, 1023.5}, candDists...)
	for b := 0; b < 24; b++ {
		ds = append(ds, candDist(b))
	}
	slices.Sort(ds)
	for i, d := range ds {
		cd := distCode(d)
		if i > 0 && cd < distCode(ds[i-1]) {
			t.Fatalf("distCode(%g) = %#x below distCode(%g) = %#x", d, cd, ds[i-1], distCode(ds[i-1]))
		}
		q := d / graph.Quantum
		whole := q >= 0 && q < 1<<30 && q == math.Trunc(q)
		if codeExact(cd) != whole || whole && codeDist(cd) != d {
			t.Fatalf("distCode(%g) = %#x: exact %v, decodes to %g", d, cd, codeExact(cd), codeDist(cd))
		}
	}
}
