package idtable

import (
	"math"
	"math/rand"
	"testing"
)

// collidingIDs returns n ids whose first probe slot is the same at every
// table size up to 4096 slots (the top 12 bits of their hash agree), plus
// n whose slot is the table's last, so their probe runs wrap around.
func collidingIDs(n int) []int32 {
	var ids []int32
	for _, want := range []uint32{0, 4095} {
		found := 0
		for id := int32(0); found < n; id++ {
			if uint32(id)*0x9E3779B9>>20 == want {
				ids = append(ids, id)
				found++
			}
		}
	}
	return ids
}

// idPool is one id distribution the model test draws from.
type idPool struct {
	name string
	ids  []int32
}

func idPools(rng *rand.Rand) []idPool {
	var dense, negative, sparse []int32
	for i := int32(0); i < 300; i++ {
		dense = append(dense, i)
		negative = append(negative, -1-i)
		sparse = append(sparse, rng.Int31()-rng.Int31())
	}
	return []idPool{
		{"dense", dense},
		{"negative", negative},
		{"sparse", sparse},
		{"extremes", []int32{math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1, 0, -1, 1}},
		{"colliding", collidingIDs(40)},
	}
}

// TestTableMatchesMap drives a Table and a map reference through seeded
// interleavings of inserts, re-inserts, deletes, re-adds after delete and
// growth over dense, sparse, negative, extreme and deliberately colliding
// ids. After every operation each id of the pool must resolve as in the
// reference, a live id must keep the row it was given, rows must be
// distinct, and no row may reach the most ids ever held at once.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range idPools(rng) {
		pool := p.ids
		t.Run(p.name, func(t *testing.T) {
			var tab Table
			ref := map[int32]int32{}
			peak := 0
			check := func(step int) {
				t.Helper()
				if tab.Len() != len(ref) {
					t.Fatalf("step %d: Len %d, reference %d", step, tab.Len(), len(ref))
				}
				rows := map[int32]bool{}
				for _, id := range pool {
					row, ok := tab.Find(id)
					want, live := ref[id]
					if ok != live || (live && row != want) {
						t.Fatalf("step %d: Find(%d) = %d, %v; reference %d, %v", step, id, row, ok, want, live)
					}
					if live {
						if rows[row] || row < 0 || int(row) >= peak {
							t.Fatalf("step %d: id %d holds row %d (duplicate or beyond peak %d)", step, id, row, peak)
						}
						rows[row] = true
					}
				}
			}
			for step := 0; step < 4000; step++ {
				id := pool[rng.Intn(len(pool))]
				if rng.Intn(5) < 3 {
					row, added := tab.Insert(id)
					want, live := ref[id]
					if added == live || (live && row != want) {
						t.Fatalf("step %d: Insert(%d) = %d, %v; reference %d, %v", step, id, row, added, want, live)
					}
					ref[id] = row
					peak = max(peak, len(ref))
				} else {
					row, ok := tab.Delete(id)
					want, live := ref[id]
					if ok != live || (live && row != want) {
						t.Fatalf("step %d: Delete(%d) = %d, %v; reference %d, %v", step, id, row, ok, want, live)
					}
					delete(ref, id)
				}
				check(step)
			}
		})
	}
}

// TestTableRowsReuseLastReleased pins the row rule the callers' slices
// rely on: fresh rows count up from zero, and a new id takes the most
// recently released row first.
func TestTableRowsReuseLastReleased(t *testing.T) {
	var tab Table
	for id := int32(10); id < 14; id++ {
		if row, added := tab.Insert(id); !added || row != id-10 {
			t.Fatalf("Insert(%d) = %d, %v; want row %d", id, row, added, id-10)
		}
	}
	tab.Delete(11)
	tab.Delete(13)
	if row, _ := tab.Insert(99); row != 3 {
		t.Fatalf("first re-used row %d, want 3 (last released)", row)
	}
	if row, _ := tab.Insert(98); row != 1 {
		t.Fatalf("second re-used row %d, want 1", row)
	}
	if row, _ := tab.Insert(97); row != 4 {
		t.Fatalf("fresh row %d, want 4", row)
	}
	if _, ok := tab.Delete(11); ok {
		t.Fatal("deleted id deleted twice")
	}
}
