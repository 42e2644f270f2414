package core

import (
	"math"
	"testing"

	"roadknn/internal/roadnet"
)

// pz is a placeholder position for candidate-store tests.
var pz = roadnet.Position{Edge: 0, Frac: 0.5}

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
	c.add(1, 5, pz)
	c.add(2, 3, pz)
	if got := c.kth(); got != 5 {
		t.Fatalf("kth = %g, want 5", got)
	}
	c.add(3, 1, pz)
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
	c.add(7, 10, pz)
	c.add(7, 4, pz) // shorter path to the same object (Fig. 3b)
	c.add(7, 8, pz) // longer again: ignored
	res, _ := c.finalize()
	if len(res) != 1 || res[0].Dist != 4 {
		t.Fatalf("finalize = %v, want single entry dist 4", res)
	}
}

func TestCandidateSetRejectsBeyondCapacity(t *testing.T) {
	c := newCandStore(1)
	for i := 0; i < reserveCap(1); i++ {
		if !c.add(roadnet.ObjectID(i), float64(i), pz) {
			t.Fatalf("candidate %d within capacity rejected", i)
		}
	}
	if !math.IsInf(c.cover, 1) {
		t.Fatalf("cover = %g before any drop", c.cover)
	}
	far := float64(reserveCap(1)) + 3
	if c.add(100, far, pz) || c.contains(100) {
		t.Fatal("candidate beyond a full store accepted")
	}
	if c.cover != far {
		t.Fatalf("cover = %g after rejecting at %g", c.cover, far)
	}
	// A closer one pushes the farthest out, and cover down to it.
	last := float64(reserveCap(1) - 1)
	if !c.add(101, 0.5, pz) || c.contains(roadnet.ObjectID(last)) || c.cover != last {
		t.Fatalf("eviction: contains(last) %v, cover %g, want %g", c.contains(roadnet.ObjectID(last)), c.cover, last)
	}
	if c.len() != reserveCap(1) || c.kth() != 0 {
		t.Fatalf("len %d, kth %g", c.len(), c.kth())
	}
}

func TestCandidateSetSetExactCanIncrease(t *testing.T) {
	c := newCandStore(2)
	c.add(1, 1, pz)
	c.add(2, 2, pz)
	c.setExact(1, 9, pz) // object moved away
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
	c.add(1, 1, pz)
	c.add(2, 2, pz)
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
	c.add(9, 1, pz)
	c.add(3, 1, pz)
	c.add(5, 1, pz)
	res, _ := c.finalize()
	if res[0].Obj != 3 || res[1].Obj != 5 {
		t.Fatalf("tie order = %v, want objs 3,5", res)
	}
}

func TestCandidateSetReset(t *testing.T) {
	c := newCandStore(2)
	c.add(1, 1, pz)
	c.finalize()
	c.lowerCover(7)
	c.reset(3)
	if c.len() != 0 || c.contains(1) || !math.IsInf(c.cover, 1) {
		t.Fatal("reset did not clear")
	}
	if c.k != 3 {
		t.Fatalf("k = %d, want 3", c.k)
	}
	// The previous result survives a reset for the change report.
	c.add(1, 1, pz)
	if res, changed := c.finalize(); changed || len(res) != 1 {
		t.Fatalf("same result after reset: %v, changed %v", res, changed)
	}
}
