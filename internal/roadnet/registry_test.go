package roadnet

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"roadknn/internal/graph"
)

// refRegistry is the object registry as a Go map plus per-edge lists kept
// by linear scans: append on arrival, swap-remove on departure, the frac
// rewritten in place on a same-edge move. Its lists are the order the
// network's must reproduce entry for entry.
type refRegistry struct {
	pos   map[ObjectID]Position
	lists [][]ObjectEntry
}

func newRefRegistry(edges int) *refRegistry {
	return &refRegistry{pos: map[ObjectID]Position{}, lists: make([][]ObjectEntry, edges)}
}

func (r *refRegistry) add(id ObjectID, p Position) {
	r.pos[id] = p
	r.lists[p.Edge] = append(r.lists[p.Edge], ObjectEntry{ID: id, Frac: p.Frac})
}

func (r *refRegistry) remove(id ObjectID) {
	e := r.pos[id].Edge
	delete(r.pos, id)
	list := r.lists[e]
	for i := range list {
		if list[i].ID == id {
			list[i] = list[len(list)-1]
			r.lists[e] = list[:len(list)-1]
			return
		}
	}
}

func (r *refRegistry) move(id ObjectID, p Position) {
	if old := r.pos[id]; old.Edge == p.Edge {
		for i := range r.lists[p.Edge] {
			if r.lists[p.Edge][i].ID == id {
				r.lists[p.Edge][i].Frac = p.Frac
			}
		}
		r.pos[id] = p
		return
	}
	r.remove(id)
	r.add(id, p)
}

// registryOp applies one operation to both registries. kind selects add,
// move to the same edge, move across edges, or remove; an add of a live id
// and a move of an absent one are skipped, a remove of an absent one must
// report false.
func registryOp(t testing.TB, n *Network, ref *refRegistry, kind int, id ObjectID, p Position) {
	t.Helper()
	cur, live := ref.pos[id]
	switch kind % 4 {
	case 0:
		if !live {
			n.AddObject(id, p)
			ref.add(id, p)
		}
	case 1, 2:
		if !live {
			return
		}
		if kind%4 == 1 {
			p.Edge = cur.Edge
		}
		if old := n.MoveObject(id, p); old != cur {
			t.Fatalf("MoveObject(%d) returned %+v, reference %+v", id, old, cur)
		}
		ref.move(id, p)
	case 3:
		got, ok := n.RemoveObject(id)
		if ok != live || got != cur {
			t.Fatalf("RemoveObject(%d) = %+v, %v; reference %+v, %v", id, got, ok, cur, live)
		}
		if live {
			ref.remove(id)
		}
	}
}

// checkRegistry compares n with the reference: every pooled id's position,
// the object count, every edge list entry by entry, and every entry's
// record, which must point back at the entry's own edge and slot.
func checkRegistry(t testing.TB, n *Network, ref *refRegistry, pool []ObjectID) {
	t.Helper()
	if n.NumObjects() != len(ref.pos) {
		t.Fatalf("NumObjects %d, reference %d", n.NumObjects(), len(ref.pos))
	}
	for _, id := range pool {
		got, ok := n.ObjectPos(id)
		want, live := ref.pos[id]
		if ok != live || got != want {
			t.Fatalf("ObjectPos(%d) = %+v, %v; reference %+v, %v", id, got, ok, want, live)
		}
	}
	for e := range ref.lists {
		list, want := n.ObjectsOn(graph.EdgeID(e)), ref.lists[e]
		if len(list) != len(want) {
			t.Fatalf("edge %d holds %d objects, reference %d", e, len(list), len(want))
		}
		for i, oe := range list {
			if oe.ID != want[i].ID || oe.Frac != want[i].Frac {
				t.Fatalf("edge %d slot %d holds %d@%v, reference %d@%v", e, i, oe.ID, oe.Frac, want[i].ID, want[i].Frac)
			}
			row, ok := n.objIdx.Find(int32(oe.ID))
			if !ok || row != oe.rec || n.objRec[row] != (objRecord{edge: graph.EdgeID(e), slot: int32(i)}) {
				t.Fatalf("edge %d slot %d: object %d's record (row %d, %v) is %+v", e, i, oe.ID, oe.rec, ok, n.objRec[oe.rec])
			}
		}
	}
}

// collidingObjectIDs returns n ids that share the top 12 bits of their
// golden-ratio product, the id table's hash: one probe run at every table
// size up to 4096 slots.
func collidingObjectIDs(n int) []ObjectID {
	var ids []ObjectID
	for id := int32(0); len(ids) < n; id++ {
		if uint32(id)*0x9E3779B9>>20 == 7 {
			ids = append(ids, ObjectID(id))
		}
	}
	return ids
}

// TestObjectTableMatchesModel drives the network's object registry and the
// reference through seeded interleavings of adds, same-edge and cross-edge
// moves, removes, re-adds after remove and table growth, over dense,
// sparse, negative, extreme and colliding ids, comparing them after every
// operation.
func TestObjectTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var dense, sparse, negative []ObjectID
	for i := 0; i < 400; i++ {
		dense = append(dense, ObjectID(i))
		sparse = append(sparse, ObjectID(rng.Int31()))
		negative = append(negative, ObjectID(-1-rng.Int31n(1<<20)))
	}
	pools := []struct {
		name string
		ids  []ObjectID
	}{
		{"dense", dense},
		{"sparse", sparse},
		{"negative", negative},
		{"extremes", []ObjectID{math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, 0, -1}},
		{"colliding", collidingObjectIDs(48)},
	}
	for _, pool := range pools {
		t.Run(pool.name, func(t *testing.T) {
			g := gridForQuick(4)
			n := NewNetwork(g)
			ref := newRefRegistry(g.NumEdges())
			for step := 0; step < 3000; step++ {
				// Adds outweigh removes early so the table grows, then churn.
				kind := rng.Intn(4)
				if step < 600 && kind == 3 {
					kind = 0
				}
				id := pool.ids[rng.Intn(len(pool.ids))]
				registryOp(t, n, ref, kind, id, n.UniformPosition(rng))
				checkRegistry(t, n, ref, pool.ids)
			}
		})
	}
}

// FuzzObjectTable decodes registry operations from the fuzz input, three
// bytes each (kind, id, position), over a small id pool with extreme and
// colliding ids, and checks the network against the reference after each.
func FuzzObjectTable(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 10, 0, 3, 10, 2, 1, 200, 3, 2, 0, 0, 2, 30, 1, 3, 99})
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 5, 0, 3, 0, 0, 3, 4, 0, 0, 0, 7, 2, 5, 128})
	pool := append([]ObjectID{math.MaxInt32, math.MinInt32, -1, 0, 1, 2}, collidingObjectIDs(10)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := gridForQuick(3)
		n := NewNetwork(g)
		ref := newRefRegistry(g.NumEdges())
		for ; len(data) >= 3; data = data[3:] {
			id := pool[int(data[1])%len(pool)]
			p := Position{Edge: graph.EdgeID(int(data[2]) % g.NumEdges()), Frac: float64(data[2]) / 255}
			registryOp(t, n, ref, int(data[0]), id, p)
			checkRegistry(t, n, ref, pool)
		}
	})
}

// TestObjectEntrySize pins ObjectEntry at 16 bytes: the record row lives in
// what was padding after the id, so edge-list scans read no more memory.
func TestObjectEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(ObjectEntry{}); s != 16 {
		t.Fatalf("ObjectEntry is %d bytes, want 16", s)
	}
}

// BenchmarkMoveObject moves 15K of 100K registered objects per iteration
// (ingest_heavy's reports per tick) between two fixed random positions
// each, so nearly every move crosses edges.
func BenchmarkMoveObject(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := NewNetwork(gridForQuick(72)) // ~10K edges, Table 2's network size
	const objects, moves = 100_000, 15_000
	for i := 0; i < objects; i++ {
		n.AddObject(ObjectID(i), n.UniformPosition(rng))
	}
	var ids [moves]ObjectID
	var to [2][moves]Position
	for i := range ids {
		ids[i] = ObjectID(rng.Intn(objects))
		to[0][i], to[1][i] = n.UniformPosition(rng), n.UniformPosition(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, id := range ids {
			n.MoveObject(id, to[it%2][i])
		}
	}
}
