package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// candModel is the specification of candStore as a map plus a sort: keep
// the minimum per object, hold the reserveCap(k) smallest by (dist, obj),
// lower cover to whatever capacity drops, and on finalize shed the reserve
// at or beyond cover.
type candModel struct {
	k      int
	ents   map[roadnet.ObjectID]candEntry
	cover  float64
	result []Neighbor
}

func (m *candModel) sorted() []candEntry {
	out := make([]candEntry, 0, len(m.ents))
	for _, e := range m.ents {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].obj < out[j].obj
	})
	return out
}

func (m *candModel) put(obj roadnet.ObjectID, d float64, pos roadnet.Position) {
	m.ents[obj] = candEntry{dist: d, frac: pos.Frac, obj: obj, edge: pos.Edge}
	if s := m.sorted(); len(s) > reserveCap(m.k) {
		last := s[len(s)-1]
		delete(m.ents, last.obj)
		m.cover = math.Min(m.cover, last.dist)
	}
}

// candModelIDs is the object universe of the op streams: small, so ops
// collide, and holding the id the store's table cannot.
var candModelIDs = []roadnet.ObjectID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 32, -1, noObj}

// runCandModel interprets ops as a stream of store operations, applies it
// to a candStore and to the model, and compares them after every op:
// order, kth, membership, cached positions, cover, and finalize's result
// and change report. The store's capacity must stay within reserveCap of
// the largest k it has served.
func runCandModel(t *testing.T, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	k := 1 + next()%5
	maxK := k
	c := newCandStore(k)
	m := &candModel{k: k, ents: map[roadnet.ObjectID]candEntry{}, cover: math.Inf(1)}

	for step := 0; len(ops) > 0; step++ {
		op := next() % 16
		obj := candModelIDs[next()%len(candModelIDs)]
		d := float64(next()%24) / 2
		pos := roadnet.Position{Edge: graph.EdgeID(next() % 7), Frac: d / 16}
		switch {
		case op < 6: // add keeps the minimum
			cur, ok := m.ents[obj]
			want := !ok || d < cur.dist
			if want {
				m.put(obj, d, pos)
				_, want = m.ents[obj] // dropped again at once: unchanged
			}
			if got := c.add(obj, d, pos); got != want {
				t.Fatalf("step %d: add(%d, %g) = %v, want %v", step, obj, d, got, want)
			}
		case op < 9: // setExact overwrites
			m.put(obj, d, pos)
			c.setExact(obj, d, pos)
		case op < 11:
			delete(m.ents, obj)
			c.remove(obj)
		case op < 12:
			m.cover = math.Min(m.cover, d)
			c.lowerCover(d)
		case op < 14: // finalize: trim to cover, report the best k
			s := m.sorted()
			for len(s) > k && s[len(s)-1].dist >= m.cover {
				delete(m.ents, s[len(s)-1].obj)
				s = s[:len(s)-1]
			}
			var want []Neighbor
			for _, e := range s[:min(k, len(s))] {
				want = append(want, Neighbor{Obj: e.obj, Dist: e.dist})
			}
			got, changed := c.finalize()
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: finalize = %v, want %v", step, got, want)
			}
			if changed != !slices.Equal(want, m.result) {
				t.Fatalf("step %d: finalize reported changed=%v for %v -> %v", step, changed, m.result, want)
			}
			m.result = want
		case op < 15: // bulk re-derivation: new distances in place, +Inf evicts
			ents := c.entries()
			for i := range ents {
				nd := float64((int(ents[i].obj)*7+step)%24) / 2
				if (int(ents[i].obj)+step)%5 == 0 {
					nd = math.Inf(1)
				}
				ents[i].dist = nd
				e := m.ents[ents[i].obj]
				e.dist = nd
				m.ents[e.obj] = e
			}
			for obj, e := range m.ents {
				if math.IsInf(e.dist, 1) {
					delete(m.ents, obj)
				}
			}
			c.restore()
		default:
			k = 1 + next()%5
			m.k, m.ents, m.cover = k, map[roadnet.ObjectID]candEntry{}, math.Inf(1)
			maxK = max(maxK, k)
			c.reset(k)
		}

		want := m.sorted()
		if !slices.Equal(c.entries(), want) {
			t.Fatalf("step %d (op %d): entries %v, want %v", step, op, c.entries(), want)
		}
		wantKth := math.Inf(1)
		if len(want) >= k {
			wantKth = want[k-1].dist
		}
		if c.kth() != wantKth || c.len() != len(want) || c.cover != m.cover {
			t.Fatalf("step %d (op %d): kth %g len %d cover %g, want %g %d %g",
				step, op, c.kth(), c.len(), c.cover, wantKth, len(want), m.cover)
		}
		if cap(c.ents) > reserveCap(maxK) {
			t.Fatalf("step %d (op %d): capacity %d past reserveCap(%d) = %d", step, op, cap(c.ents), maxK, reserveCap(maxK))
		}
		for _, id := range candModelIDs {
			if _, in := m.ents[id]; c.contains(id) != in {
				t.Fatalf("step %d (op %d): contains(%d) = %v", step, op, id, !in)
			}
		}
	}
}

// TestCandidateStoreMatchesModel drives the store with random op streams
// against the map + sort model (FuzzCandidateStore explores the same
// driver).
func TestCandidateStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 40+rng.Intn(600))
		rng.Read(ops)
		runCandModel(t, ops)
	}
}

// TestQuickCandidateAddRejectionIsSafe verifies the memory bound of add: a
// candidate dropped for capacity can never belong to the final top-k of the
// same expansion (kth only shrinks between adds).
func TestQuickCandidateAddRejectionIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		c := newCandStore(k)
		all := map[roadnet.ObjectID]float64{}
		n := 5 + rng.Intn(50)
		for i := 0; i < n; i++ {
			obj := roadnet.ObjectID(rng.Intn(30))
			d := rng.Float64() * 10
			if cur, ok := all[obj]; !ok || d < cur {
				all[obj] = d
			}
			c.add(obj, d, pz)
		}
		res, _ := c.finalize()
		// Expected top-k from the full multiset.
		type pair struct {
			o roadnet.ObjectID
			d float64
		}
		var ps []pair
		for o, d := range all {
			ps = append(ps, pair{o, d})
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].d != ps[j].d {
				return ps[i].d < ps[j].d
			}
			return ps[i].o < ps[j].o
		})
		if len(ps) > k {
			ps = ps[:k]
		}
		for i := range ps {
			if res[i].Obj != ps[i].o || res[i].Dist != ps[i].d {
				t.Fatalf("trial %d: result[%d] = %v, want %v", trial, i, res[i], ps[i])
			}
		}
	}
}

// FuzzCandidateStore explores op streams against the same model. The seeds
// fill a store past capacity, re-derive it in bulk, and re-target it.
func FuzzCandidateStore(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 9, 80, 400} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	fill := []byte{0} // k = 1: capacity reserveCap(1)
	for i := 0; i < 40; i++ {
		fill = append(fill, 0, byte(i), byte(40-i), 0) // add id i%16 at falling distances
	}
	f.Add(append(fill, 14, 0, 0, 0, 12, 0, 0, 0, 15, 0, 0, 0, 3))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		runCandModel(t, ops)
	})
}
