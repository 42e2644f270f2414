package serve

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"roadknn"
	"roadknn/internal/wal"
)

// mapBatcher is the object half of the Batcher as it was built on Go maps
// (applied positions, pending reports, first-report order of ids): the
// reference the row table must reproduce report for report.
type mapBatcher struct {
	applied map[roadknn.ObjectID]roadknn.Position
	pend    map[roadknn.ObjectID]mapPend
	order   []roadknn.ObjectID
}

type mapPend struct {
	pos roadknn.Position
	del bool
}

func newMapBatcher() *mapBatcher {
	return &mapBatcher{applied: map[roadknn.ObjectID]roadknn.Position{}, pend: map[roadknn.ObjectID]mapPend{}}
}

func (m *mapBatcher) object(id roadknn.ObjectID, p roadknn.Position) {
	if _, seen := m.pend[id]; !seen {
		m.order = append(m.order, id)
	}
	m.pend[id] = mapPend{pos: p}
}

func (m *mapBatcher) deleteObject(id roadknn.ObjectID) bool {
	_, applied := m.applied[id]
	_, pending := m.pend[id]
	if !applied && !pending {
		return false
	}
	if !pending {
		m.order = append(m.order, id)
	}
	m.pend[id] = mapPend{del: true}
	return true
}

func (m *mapBatcher) preview() []roadknn.ObjectUpdate {
	var out []roadknn.ObjectUpdate
	for _, id := range m.order {
		p := m.pend[id]
		old, existed := m.applied[id]
		switch {
		case p.del && existed:
			out = append(out, roadknn.ObjectUpdate{ID: id, Delete: true})
		case p.del:
		case existed:
			if old != p.pos {
				out = append(out, roadknn.ObjectUpdate{ID: id, New: p.pos})
			}
		default:
			out = append(out, roadknn.ObjectUpdate{ID: id, New: p.pos, Insert: true})
		}
	}
	return out
}

func (m *mapBatcher) drain() []roadknn.ObjectUpdate {
	out := m.preview()
	for _, ou := range out {
		if ou.Delete {
			delete(m.applied, ou.ID)
		} else {
			m.applied[ou.ID] = ou.New
		}
	}
	clear(m.pend)
	m.order = m.order[:0]
	return out
}

func (m *mapBatcher) checkpoint() []wal.ObjectState {
	objs := make([]wal.ObjectState, 0, len(m.applied))
	for id, p := range m.applied {
		objs = append(objs, wal.ObjectState{ID: id, Pos: p})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	return objs
}

// TestBatcherMatchesMapModel feeds the Batcher and the map reference the
// same random report streams — inserts and deletes within one tick,
// deletes of unknown ids, deletes followed by re-reports, re-reports of
// the applied position — over a small id pool, so rows are released and
// reused every few ticks. Every Preview and Drain must encode to the same
// WAL bytes, and Pending, PendingObject, pendingOnEdge, DeleteObject's
// answer and the checkpointed objects must agree throughout.
func TestBatcherMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := []roadknn.ObjectID{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, -1, -7, math.MaxInt32, math.MinInt32, 1 << 20}
	for i := 0; i < 25; i++ {
		pool = append(pool, roadknn.ObjectID(100+i))
	}
	// A small position set makes re-reports of the applied position common.
	randPos := func() roadknn.Position { return pos(int32(rng.Intn(6)), float64(rng.Intn(3))/2) }
	encode := func(seq uint64, objs []roadknn.ObjectUpdate) []byte {
		return wal.EncodeRecords(nil, []wal.BatchRecord{{Seq: seq, Updates: roadknn.Updates{Objects: objs}}})
	}

	b, ref := NewBatcher(), newMapBatcher()
	b.InitTopology(6, nil)
	for tick := uint64(1); tick <= 400; tick++ {
		for n := rng.Intn(30); n > 0; n-- {
			id := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(10); {
			case r < 5:
				p := randPos()
				b.Object(id, p)
				ref.object(id, p)
			case r < 7:
				if got, want := b.DeleteObject(id), ref.deleteObject(id); got != want {
					t.Fatalf("tick %d: DeleteObject(%d) = %v, reference %v", tick, id, got, want)
				}
			case r < 8: // delete + re-report within the tick
				b.DeleteObject(id)
				ref.deleteObject(id)
				p := randPos()
				b.Object(id, p)
				ref.object(id, p)
			default: // report + delete within the tick
				p := randPos()
				b.Object(id, p)
				ref.object(id, p)
				b.DeleteObject(id)
				ref.deleteObject(id)
			}
			if b.Pending() != len(ref.pend) {
				t.Fatalf("tick %d: Pending %d, reference %d", tick, b.Pending(), len(ref.pend))
			}
		}
		for _, id := range pool {
			_, want := ref.pend[id]
			if got := b.PendingObject(id); got != want {
				t.Fatalf("tick %d: PendingObject(%d) = %v, reference %v", tick, id, got, want)
			}
		}
		for e := roadknn.EdgeID(0); e < 6; e++ {
			want := false
			for _, p := range ref.pend {
				want = want || (!p.del && p.pos.Edge == e)
			}
			if got := b.pendingOnEdge(e); got != want {
				t.Fatalf("tick %d: pendingOnEdge(%d) = %v, reference %v", tick, e, got, want)
			}
		}
		if got, want := encode(tick, b.Preview().Objects), encode(tick, ref.preview()); !bytes.Equal(got, want) {
			t.Fatalf("tick %d: Preview differs from the reference", tick)
		}
		if got, want := encode(tick, b.Drain().Objects), encode(tick, ref.drain()); !bytes.Equal(got, want) {
			t.Fatalf("tick %d: Drain differs from the reference", tick)
		}
		if b.Pending() != 0 {
			t.Fatalf("tick %d: %d reports pending after Drain", tick, b.Pending())
		}
		objs, _, _, _ := b.CheckpointState()
		if want := ref.checkpoint(); !slices.Equal(objs, want) {
			t.Fatalf("tick %d: checkpoint objects %v, reference %v", tick, objs, want)
		}
	}
}
