package idtable

import (
	"fmt"
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

// longestRun returns the longest cyclic run of occupied key slots: the most
// slots any probe that misses can walk.
func longestRun(keys []int32) int {
	n := len(keys)
	best, run := 0, 0
	for i := 0; i < 2*n; i++ {
		if keys[i%n] == free {
			run = 0
			continue
		}
		if run++; run > best {
			best = run
		}
	}
	return min(best, n)
}

// TestMapStructuredIDs inserts ids that share their low bits — multiples of
// 65536 and of 1024, as a client may choose them — and bounds the longest
// probe run. A home taken from the low bits of the hash puts each family
// into a few runs hundreds or thousands of slots long.
func TestMapStructuredIDs(t *testing.T) {
	for _, stride := range []int32{1, 1024, 65536} {
		var m Map[float64]
		for i := int32(0); i < 4096; i++ {
			m.Put(i*stride, float64(i))
		}
		run := longestRun(m.keys)
		t.Logf("stride %d: %d ids in %d slots, longest run %d", stride, m.Len(), m.Slots(), run)
		if run > 16 {
			t.Fatalf("stride %d: longest probe run %d slots, want at most 16", stride, run)
		}
		for i := int32(0); i < 4096; i++ {
			if v, ok := m.Get(i * stride); !ok || v != float64(i) {
				t.Fatalf("stride %d: Get(%d) = %v, %v", stride, i*stride, v, ok)
			}
		}
	}
}

// checkMap compares m with its reference over every key of pool, and its
// arrays with its count: as many occupied slots as keys held, the reserved
// key aside.
func checkMap[V comparable](m *Map[V], ref map[int32]V, pool []int32) error {
	if m.Len() != len(ref) {
		return fmt.Errorf("Len %d, reference %d", m.Len(), len(ref))
	}
	for _, k := range pool {
		v, ok := m.Get(k)
		want, live := ref[k]
		if ok != live || v != want {
			return fmt.Errorf("Get(%d) = %v, %v; reference %v, %v", k, v, ok, want, live)
		}
	}
	occupied := 0
	for _, k := range m.keys {
		if k != free {
			occupied++
		}
	}
	if _, res := ref[free]; res {
		occupied++
	}
	if occupied != len(ref) {
		return fmt.Errorf("%d slots occupied, %d keys held", occupied, len(ref))
	}
	return nil
}

// applyMapOp applies one operation, chosen by op, on key k to m and its
// reference, and reports a disagreement in what the operation returned.
func applyMapOp[V comparable](m *Map[V], ref map[int32]V, op byte, k int32, v V) error {
	switch op % 8 {
	case 0, 1, 2:
		_, live := ref[k]
		if added := m.Put(k, v); added == live {
			return fmt.Errorf("Put(%d) added %v, reference held it: %v", k, added, live)
		}
		ref[k] = v
	case 3:
		want, live := ref[k]
		if !live {
			want = v
		}
		if got, ok := m.GetOrPut(k, v); ok != live || got != want {
			return fmt.Errorf("GetOrPut(%d, %v) = %v, %v; reference %v, %v", k, v, got, ok, want, live)
		}
		ref[k] = want
	case 4, 5, 6:
		_, live := ref[k]
		if ok := m.Delete(k); ok != live {
			return fmt.Errorf("Delete(%d) = %v; reference held it: %v", k, ok, live)
		}
		delete(ref, k)
	default:
		m.Clear()
		clear(ref)
	}
	return nil
}

// runMapModel drives a Map and a Go map through one seeded interleaving of
// inserts, overwrites, get-or-puts, deletes, clears and growth over pool,
// checking after every operation. val gives the value a step writes.
func runMapModel[V comparable](t *testing.T, rng *rand.Rand, pool []int32, val func(step int) V) {
	var m Map[V]
	ref := map[int32]V{}
	for step := 0; step < 4000; step++ {
		op := byte(rng.Intn(8))
		if op == 7 && rng.Intn(20) > 0 {
			op = 0 // clear rarely, so the map grows
		}
		if err := applyMapOp(&m, ref, op, pool[rng.Intn(len(pool))], val(step)); err != nil {
			t.Fatalf("%T values, step %d: %v", m, step, err)
		}
		if err := checkMap(&m, ref, pool); err != nil {
			t.Fatalf("%T values, step %d: %v", m, step, err)
		}
	}
}

// TestMapMatchesMap runs the model over each of the id pools, the reserved
// id among them, with the value types the core instantiates: float64 and
// the candidate store's uint32 distance codes (the top bit set on odd
// steps, so no value fits in fewer bits).
func TestMapMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range idPools(rng) {
		t.Run(p.name, func(t *testing.T) {
			runMapModel(t, rng, p.ids, func(step int) float64 { return float64(step) })
			runMapModel(t, rng, p.ids, func(step int) uint32 { return uint32(step) | uint32(step&1)<<31 })
		})
	}
}

// FuzzMap interprets its input as operations on a Map with float64 values
// and on one with uint32 values over a small key universe that holds the
// reserved id, and compares each with a Go map after every operation.
func FuzzMap(f *testing.F) {
	f.Add([]byte{0, 15, 4, 15, 0, 15, 7, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 15, 5, 1, 1, 15, 0, 3, 6, 2})
	keys := []int32{0, 1, -1, 2, 3, 1 << 16, 2 << 16, 3 << 16, 1024, 2048, 3072,
		math.MaxInt32, math.MinInt32 + 1, 4096, 5 << 16, math.MinInt32}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m Map[float64]
		ref := map[int32]float64{}
		var mc Map[uint32]
		refc := map[int32]uint32{}
		for i := 0; i+1 < len(ops); i += 2 {
			k := keys[int(ops[i+1])%len(keys)]
			if err := applyMapOp(&m, ref, ops[i], k, float64(i)); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if err := applyMapOp(&mc, refc, ops[i], k, math.MaxUint32-uint32(i)); err != nil {
				t.Fatalf("op %d, uint32 values: %v", i/2, err)
			}
			if err := checkMap(&m, ref, keys); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if err := checkMap(&mc, refc, keys); err != nil {
				t.Fatalf("op %d, uint32 values: %v", i/2, err)
			}
		}
	})
}
