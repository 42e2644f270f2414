package pqueue

import (
	"math/rand"
	"sort"
	"testing"
)

// TestDenseMatchesModel drives Dense through a random operation stream next
// to the obvious model — a key→priority map whose minimum is found by
// scanning — and requires identical observable behavior: insertion,
// decrease-key, ignored increases, membership, pop order and Reset.
func TestDenseMatchesModel(t *testing.T) {
	const universe = 64
	rng := rand.New(rand.NewSource(42))
	d := NewDense(universe)
	m := map[int32]float64{}

	for op := 0; op < 20000; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // push / decrease-key
			k := int32(rng.Intn(universe))
			p := float64(rng.Intn(50))
			cur, queued := m[k]
			want := !queued || p < cur
			if want {
				m[k] = p
			}
			if got := d.Push(k, p); got != want {
				t.Fatalf("op %d: Push(%d,%g) = %v, model says %v", op, k, p, got, want)
			}
		case 5, 6, 7: // pop
			dk, dp, dok := d.PopMin()
			if dok != (len(m) > 0) {
				t.Fatalf("op %d: PopMin ok = %v with %d items queued", op, dok, len(m))
			}
			if !dok {
				continue
			}
			// Equal priorities may pop in any key order (heap ties): the
			// popped key must be queued at the popped priority, and no
			// queued item may be cheaper.
			if mp, queued := m[dk]; !queued || mp != dp {
				t.Fatalf("op %d: PopMin = (%d,%g), model holds (%g,%v)", op, dk, dp, mp, queued)
			}
			for k, p := range m {
				if p < dp {
					t.Fatalf("op %d: PopMin = (%d,%g) but (%d,%g) is queued", op, dk, dp, k, p)
				}
			}
			delete(m, dk)
		case 8: // membership probes
			k := int32(rng.Intn(universe))
			mp, mok := m[k]
			if d.Contains(k) != mok {
				t.Fatalf("op %d: Contains(%d) disagrees", op, k)
			}
			if dp, dok := d.Priority(k); dok != mok || dp != mp {
				t.Fatalf("op %d: Priority(%d) = (%g,%v), model says (%g,%v)", op, k, dp, dok, mp, mok)
			}
		case 9: // occasional reset
			if rng.Intn(20) == 0 {
				d.Reset()
				clear(m)
			}
		}
		if d.Len() != len(m) {
			t.Fatalf("op %d: Len %d vs %d", op, d.Len(), len(m))
		}
	}
}

// TestDenseHeapOrder checks that a batch of pushes pops in sorted order.
func TestDenseHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewDense(1000)
	want := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		p := rng.Float64()
		q.Push(int32(i), p)
		want = append(want, p)
	}
	sort.Float64s(want)
	for i, w := range want {
		_, p, ok := q.PopMin()
		if !ok || p != w {
			t.Fatalf("pop %d: got (%g,%v), want %g", i, p, ok, w)
		}
	}
	if _, _, ok := q.PopMin(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestDenseResetIsO1AndCorrect checks that Reset invalidates everything and
// the queue is immediately reusable, across many epochs (including that a
// popped key can be re-pushed within one epoch).
func TestDenseResetIsO1AndCorrect(t *testing.T) {
	q := NewDense(8)
	for epoch := 0; epoch < 100; epoch++ {
		q.Push(3, 5)
		q.Push(1, 2)
		if k, p, _ := q.PopMin(); k != 1 || p != 2 {
			t.Fatalf("epoch %d: first pop (%d,%g)", epoch, k, p)
		}
		if q.Contains(1) {
			t.Fatal("popped key still contained")
		}
		q.Push(1, 9) // re-push after pop within the same epoch
		if !q.Contains(1) {
			t.Fatal("re-pushed key not contained")
		}
		q.Reset()
		if q.Len() != 0 || q.Contains(3) || q.Contains(1) {
			t.Fatalf("epoch %d: Reset did not clear", epoch)
		}
	}
}

// TestDenseGrow checks Grow preserves queued items and extends the universe.
func TestDenseGrow(t *testing.T) {
	q := NewDense(4)
	q.Push(2, 7)
	q.Grow(100)
	if q.Universe() != 100 {
		t.Fatalf("Universe = %d", q.Universe())
	}
	q.Push(99, 1)
	if k, p, _ := q.PopMin(); k != 99 || p != 1 {
		t.Fatalf("pop (%d,%g)", k, p)
	}
	if k, p, _ := q.PopMin(); k != 2 || p != 7 {
		t.Fatalf("pop (%d,%g)", k, p)
	}
}
