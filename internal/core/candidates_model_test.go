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
	ents   map[roadnet.ObjectID]candKey
	cover  float64
	result []Neighbor
}

// candKey is one model entry: the key and the edge it was offered on.
type candKey struct {
	nb   Neighbor
	edge graph.EdgeID
}

func (m *candModel) sorted() []candKey {
	out := make([]candKey, 0, len(m.ents))
	for _, e := range m.ents {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].nb.Dist != out[j].nb.Dist {
			return out[i].nb.Dist < out[j].nb.Dist
		}
		return out[i].nb.Obj < out[j].nb.Obj
	})
	return out
}

func (m *candModel) put(obj roadnet.ObjectID, d float64, e graph.EdgeID) {
	m.ents[obj] = candKey{nb: Neighbor{Obj: obj, Dist: d}, edge: e}
	if s := m.sorted(); len(s) > reserveCap(m.k) {
		last := s[len(s)-1]
		delete(m.ents, last.nb.Obj)
		m.cover = math.Min(m.cover, last.nb.Dist)
	}
}

// candModelIDs is the object universe of the op streams: small, so ops
// collide, and holding the id the membership table reserves as its
// empty-slot marker.
var candModelIDs = []roadnet.ObjectID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 32, -1, math.MinInt32}

// candDists are the model's distances besides the whole halves 0 to 11.5:
// whole quanta on both sides of the end of the exact codes (2^30 quanta,
// 1024 cost units), values between quanta — three in one quantum, whose
// codes tie —, values above 1024 that share the top 32 bits of their
// float64 (equal codes) and one that does not, negative values (all code
// 0), the largest float64 and +Inf.
var candDists = []float64{
	(1<<30 - 2) * graph.Quantum, (1<<30 - 1) * graph.Quantum, 1 << 10, (1<<30 + 1) * graph.Quantum,
	(1<<30 - 0.5) * graph.Quantum,
	0.5 + graph.Quantum/4, 0.5 + graph.Quantum/2, 0.5 + 3*graph.Quantum/4, 0.5 + graph.Quantum, graph.Quantum / 3,
	2000, 2000 + 1.0/(1<<12), 2000 + 1.0/(1<<11), 2000 + 1.0/(1<<10),
	-0.25, -3,
	math.MaxFloat64, math.Inf(1),
}

// candDist maps a byte of an op stream to a distance: below 128 a whole
// half (exact codes), from 128 one of candDists.
func candDist(b int) float64 {
	if b < 128 {
		return float64(b%24) / 2
	}
	return candDists[b%len(candDists)]
}

// rederived is the distance the model's bulk re-derivation gives obj at
// step: +Inf, which evicts, for every fifth, and negative for some of the
// negative ids.
func rederived(obj roadnet.ObjectID, step int) float64 {
	if (int(obj)+step)%5 == 0 {
		return math.Inf(1)
	}
	return candDist((int(obj)*7 + step*37) % 256)
}

// runCandModel interprets ops as a stream of store operations, applies it
// to two candStores — one tracking changes, one not — and to the model,
// and compares them after every op: keys and their edges in order, kth,
// membership, each key's code in the table and the rank find gives it,
// cover, and finalize's result, which must be the prefix of the store's own
// keys, and change report, which must be exact for the tracking store and
// never miss a change for the other. Each store's arrays must stay within
// reserveCap of the largest k it has served. Distances come from candDist.
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
	var prev []Neighbor
	tracked, untracked := newCandStore(k), newCandStore(k)
	tracked.prev = &prev
	stores := [2]*candStore{tracked, untracked}
	m := &candModel{k: k, ents: map[roadnet.ObjectID]candKey{}, cover: math.Inf(1)}

	for step := 0; len(ops) > 0; step++ {
		op := next() % 16
		obj := candModelIDs[next()%len(candModelIDs)]
		d := candDist(next())
		e := graph.EdgeID(next() % 7)
		switch {
		case op < 6: // add keeps the minimum
			cur, ok := m.ents[obj]
			want := !ok || d < cur.nb.Dist
			if want {
				m.put(obj, d, e)
				_, want = m.ents[obj] // dropped again at once: unchanged
			}
			for _, c := range stores {
				if got := c.add(obj, d, e); got != want {
					t.Fatalf("step %d: add(%d, %g) = %v, want %v", step, obj, d, got, want)
				}
			}
		case op < 9: // setExact overwrites
			m.put(obj, d, e)
			for _, c := range stores {
				c.setExact(obj, d, e)
			}
		case op < 11:
			delete(m.ents, obj)
			for _, c := range stores {
				c.remove(obj)
			}
		case op < 12:
			m.cover = math.Min(m.cover, d)
			for _, c := range stores {
				c.lowerCover(d)
			}
		case op < 14: // finalize: trim to cover, report the best k
			s := m.sorted()
			for len(s) > k && s[len(s)-1].nb.Dist >= m.cover {
				delete(m.ents, s[len(s)-1].nb.Obj)
				s = s[:len(s)-1]
			}
			var want []Neighbor
			for _, e := range s[:min(k, len(s))] {
				want = append(want, e.nb)
			}
			diff := !slices.Equal(want, m.result)
			for i, c := range stores {
				got, changed := c.finalize()
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: finalize = %v, want %v", step, got, want)
				}
				if len(got) > 0 && (&got[0] != &c.nb[0] || cap(got) != len(got)) {
					t.Fatalf("step %d: finalize's result is not the capped prefix of the store's keys", step)
				}
				if i == 0 && changed != diff || i == 1 && diff && !changed {
					t.Fatalf("step %d: finalize (tracking %v) reported changed=%v for %v -> %v",
						step, i == 0, changed, m.result, want)
				}
			}
			m.result = want
		case op < 15: // bulk re-derivation: new distances and edges in place, +Inf evicts
			for _, c := range stores {
				nb, edges := c.rekey()
				for i := range nb {
					nb[i].Dist, edges[i] = rederived(nb[i].Obj, step), graph.EdgeID((int(nb[i].Obj)+step)%7)
				}
				c.restore()
			}
			for obj, e := range m.ents {
				if e.nb.Dist = rederived(obj, step); math.IsInf(e.nb.Dist, 1) {
					delete(m.ents, obj)
					continue
				}
				e.edge = graph.EdgeID((int(obj) + step) % 7)
				m.ents[obj] = e
			}
		default:
			k = 1 + next()%5
			m.k, m.ents, m.cover = k, map[roadnet.ObjectID]candKey{}, math.Inf(1)
			maxK = max(maxK, k)
			for _, c := range stores {
				c.reset(k)
			}
		}

		want := m.sorted()
		wantKth := math.Inf(1)
		if len(want) >= k {
			wantKth = want[k-1].nb.Dist
		}
		for _, c := range stores {
			if len(c.edges) != len(c.nb) {
				t.Fatalf("step %d (op %d): %d edges for %d keys", step, op, len(c.edges), len(c.nb))
			}
			got := make([]candKey, len(c.nb))
			for i := range got {
				got[i] = candKey{nb: c.nb[i], edge: c.edges[i]}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (op %d): keys %v, want %v", step, op, got, want)
			}
			if c.kth() != wantKth || c.len() != len(want) || c.cover != m.cover {
				t.Fatalf("step %d (op %d): kth %g len %d cover %g, want %g %d %g",
					step, op, c.kth(), c.len(), c.cover, wantKth, len(want), m.cover)
			}
			if cap(c.nb) > reserveCap(maxK) || cap(c.edges) > reserveCap(maxK) {
				t.Fatalf("step %d (op %d): capacity %d/%d past reserveCap(%d) = %d",
					step, op, cap(c.nb), cap(c.edges), maxK, reserveCap(maxK))
			}
			for _, id := range candModelIDs {
				if _, in := m.ents[id]; c.contains(id) != in {
					t.Fatalf("step %d (op %d): contains(%d) = %v", step, op, id, !in)
				}
			}
			for i, key := range c.nb {
				if cd, _ := c.lookup(key.Obj); cd != distCode(key.Dist) || c.find(key.Obj, cd) != i {
					t.Fatalf("step %d (op %d): key %d (%v) has code %#x, found at rank %d", step, op, i, key, cd, c.find(key.Obj, cd))
				}
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
			c.add(obj, d, 0)
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
// fill a store past capacity, re-derive it in bulk, and re-target it; the
// last fills one with keys whose codes tie and are inexact.
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
	// Two families of inexact codes, each three distances with one code:
	// inside one quantum, and above 1024 within one top-32-bit word. Every
	// id is added at its family's largest (past capacity: one drops),
	// lowered twice within the tie, finalized, raised again in place, and
	// every third removed.
	distByte := func(d float64) byte {
		for b := 128; ; b++ {
			if candDist(b) == d {
				return byte(b)
			}
		}
	}
	families := [2][3]float64{
		{0.5 + 3*graph.Quantum/4, 0.5 + graph.Quantum/2, 0.5 + graph.Quantum/4},
		{2000 + 1.0/(1<<11), 2000 + 1.0/(1<<12), 2000},
	}
	tied := []byte{2} // k = 3: capacity reserveCap(3) = 15
	rounds := []struct{ op, tie byte }{{0, 0}, {0, 1}, {0, 2}, {12, 0}, {6, 0}, {9, 0}}
	for _, r := range rounds {
		for id := 0; id < 16; id++ {
			if r.op != 9 || id%3 == 0 {
				tied = append(tied, r.op, byte(id), distByte(families[id%2][r.tie]), byte(id))
			}
		}
	}
	f.Add(tied)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		runCandModel(t, ops)
	})
}
