package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/idtable"
	"roadknn/internal/roadnet"
)

// deltaTestEngine builds one serving+deltas engine over a small network
// populated with objects.
func deltaTestEngine(mk func(*roadnet.Network, Options) Engine, seed int64, nObj int) Engine {
	net := roadnet.NewNetwork(gen.SanFranciscoLike(200, seed))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nObj; i++ {
		net.AddObject(roadnet.ObjectID(i), net.UniformPosition(rng))
	}
	return mk(net, Options{Workers: 1, Deltas: true})
}

// TestDeltaReconstructsEveryEpoch drives each engine through churn that
// exercises every delta shape — result changes, query installs, query
// terminations — and asserts that applying each epoch's delta to the
// previous snapshot reconstructs the new snapshot bit-exactly (canonical
// binary encoding compared byte for byte).
func TestDeltaReconstructsEveryEpoch(t *testing.T) {
	engines := []struct {
		name string
		mk   func(*roadnet.Network, Options) Engine
	}{
		{"OVH", func(n *roadnet.Network, o Options) Engine { return NewOVHWith(n, o) }},
		{"IMA", func(n *roadnet.Network, o Options) Engine { return NewIMAWith(n, o) }},
		{"GMA", func(n *roadnet.Network, o Options) Engine { return NewGMAWith(n, o) }},
	}
	const nObj = 120
	for _, ec := range engines {
		t.Run(ec.name, func(t *testing.T) {
			eng := deltaTestEngine(ec.mk, 42, nObj)
			defer eng.Close()
			net := eng.Network()
			rng := rand.New(rand.NewSource(99))
			for q := 0; q < 12; q++ {
				eng.Register(QueryID(q), net.UniformPosition(rng), 1+rng.Intn(5))
			}
			prev := eng.Snapshot()
			live := map[QueryID]bool{}
			for q := 0; q < 12; q++ {
				live[QueryID(q)] = true
			}
			nextQID := QueryID(12)
			for ts := 0; ts < 40; ts++ {
				var u Updates
				for i := 0; i < nObj; i++ {
					if rng.Float64() > 0.2 {
						continue
					}
					id := roadnet.ObjectID(i)
					u.Objects = append(u.Objects, ObjectUpdate{ID: id, New: net.UniformPosition(rng)})
				}
				for q := QueryID(0); q < nextQID; q++ {
					if live[q] && rng.Float64() < 0.2 {
						u.Queries = append(u.Queries, QueryUpdate{ID: q, New: net.UniformPosition(rng)})
					}
				}
				m := net.G.NumEdges()
				for i := 0; i < 4; i++ {
					eid := graph.EdgeID(rng.Intn(m))
					u.Edges = append(u.Edges, EdgeUpdate{Edge: eid, NewW: net.G.Edge(eid).W * (0.9 + 0.2*rng.Float64())})
				}
				eng.Step(u)
				prev = checkDeltaStep(t, eng, prev, ts)

				// Registration churn publishes its own epochs: exercise the
				// merge branch's added/removed delta paths.
				if ts%7 == 3 {
					eng.Register(nextQID, net.UniformPosition(rng), 1+rng.Intn(4))
					live[nextQID] = true
					nextQID++
					prev = checkDeltaStep(t, eng, prev, ts)
				}
				if ts%11 == 5 {
					for q := QueryID(0); q < nextQID; q++ {
						if live[q] {
							eng.Unregister(q)
							delete(live, q)
							break
						}
					}
					prev = checkDeltaStep(t, eng, prev, ts)
				}
			}
		})
	}
}

// checkDeltaStep verifies the engine's latest published epoch against the
// previous snapshot via the delta and returns the new snapshot.
func checkDeltaStep(t *testing.T, eng Engine, prev *Snapshot, ts int) *Snapshot {
	t.Helper()
	snap := eng.Snapshot()
	if snap.Epoch() != prev.Epoch()+1 {
		t.Fatalf("ts %d: epoch jumped %d -> %d", ts, prev.Epoch(), snap.Epoch())
	}
	d := snap.Delta()
	if d == nil {
		t.Fatalf("ts %d: no delta on epoch %d", ts, snap.Epoch())
	}
	if d.Epoch() != snap.Epoch() || d.Timestamp() != snap.Timestamp() {
		t.Fatalf("ts %d: delta clock %d/%d vs snapshot %d/%d",
			ts, d.Epoch(), d.Timestamp(), snap.Epoch(), snap.Timestamp())
	}
	if cap(d.Queries) != len(d.Queries) {
		t.Fatalf("ts %d: delta holds %d queries in room for %d", ts, len(d.Queries), cap(d.Queries))
	}
	got, err := d.Apply(prev)
	if err != nil {
		t.Fatalf("ts %d: apply delta to epoch %d: %v", ts, prev.Epoch(), err)
	}
	want := snap.AppendBinary(nil)
	if gotB := got.AppendBinary(nil); !bytes.Equal(gotB, want) {
		t.Fatalf("ts %d: delta-reconstructed snapshot differs from published epoch %d\ndelta: %+v",
			ts, snap.Epoch(), d.Queries)
	}
	checkEncodedLen(t, "published", snap)
	checkEncodedLen(t, "delta-applied", got)
	// A delta codec round trip must reproduce the delta and still apply.
	enc := d.AppendBinary(nil)
	dec, err := UnmarshalDelta(enc)
	if err != nil {
		t.Fatalf("ts %d: decode emitted delta: %v", ts, err)
	}
	if !bytes.Equal(dec.AppendBinary(nil), enc) {
		t.Fatalf("ts %d: delta codec round trip differs", ts)
	}
	if d.EncodedLen() != len(enc) {
		t.Fatalf("ts %d: EncodedLen %d, encoding is %d bytes", ts, d.EncodedLen(), len(enc))
	}
	// The emitted delta is value-equal to its decoded form — nil, not empty,
	// where a query has no Left or no Updated — and no entry can grow into
	// its neighbour in the epoch's shared arena.
	if !reflect.DeepEqual(dec.Queries, d.Queries) {
		t.Fatalf("ts %d: emitted delta differs from its decoded form\n got %+v\nwant %+v", ts, d.Queries, dec.Queries)
	}
	for _, qd := range d.Queries {
		if cap(qd.Left) != len(qd.Left) {
			t.Fatalf("ts %d: query %d's Left has spare capacity %d", ts, qd.ID, cap(qd.Left)-len(qd.Left))
		}
		if _, added := prev.Lookup(qd.ID); added && cap(qd.Updated) != len(qd.Updated) {
			t.Fatalf("ts %d: query %d's Updated has spare capacity %d", ts, qd.ID, cap(qd.Updated)-len(qd.Updated))
		}
	}
	return snap
}

// TestDeltaQuietStepIsEmpty: a step with no updates publishes a new epoch
// whose delta lists no queries, and a delta's volume follows the churn: one
// object moving under twenty queries encodes to a fraction of the snapshot
// a subscriber without deltas would be sent.
func TestDeltaQuietStepIsEmpty(t *testing.T) {
	eng := deltaTestEngine(func(n *roadnet.Network, o Options) Engine { return NewIMAWith(n, o) }, 7, 30)
	defer eng.Close()
	net := eng.Network()
	rng := rand.New(rand.NewSource(1))
	for q := QueryID(1); q <= 20; q++ {
		eng.Register(q, net.UniformPosition(rng), 3)
	}
	eng.Step(Updates{})
	d := eng.Snapshot().Delta()
	if d == nil || d.Len() != 0 {
		t.Fatalf("quiet step delta = %+v, want empty", d)
	}

	eng.Step(Updates{Objects: []ObjectUpdate{{ID: 0, New: net.UniformPosition(rng)}}})
	snap := eng.Snapshot()
	deltaBytes, snapBytes := len(snap.Delta().AppendBinary(nil)), len(snap.AppendBinary(nil))
	if snap.Delta().Len() == 0 || 2*deltaBytes >= snapBytes {
		t.Fatalf("one moved object: delta of %d queries in %d bytes against a %d-byte snapshot",
			snap.Delta().Len(), deltaBytes, snapBytes)
	}
}

// TestDeltaDisabledByDefault: a serving engine without Options.Deltas
// publishes snapshots with no delta attached.
func TestDeltaDisabledByDefault(t *testing.T) {
	net := roadnet.NewNetwork(gen.SanFranciscoLike(100, 3))
	eng := NewIMAWith(net, Options{Workers: 1, Serving: true})
	defer eng.Close()
	eng.Step(Updates{})
	if d := eng.Snapshot().Delta(); d != nil {
		t.Fatalf("delta emitted without Options.Deltas: %+v", d)
	}
}

func TestDeltaApplyValidation(t *testing.T) {
	base := &Snapshot{epoch: 5, stamp: 3,
		ids: []QueryID{1, 3},
		res: [][]Neighbor{{{Obj: 10, Dist: 1}}, {{Obj: 11, Dist: 2}}},
	}
	cases := []struct {
		name string
		d    *Delta
	}{
		{"wrong epoch", NewDelta(7, 3, nil)},
		{"remove unknown", NewDelta(6, 3, []QueryDelta{{ID: 2, Removed: true}})},
		{"removed with entries", NewDelta(6, 3, []QueryDelta{{ID: 1, Removed: true, Left: []roadnet.ObjectID{10}}})},
		{"left not present", NewDelta(6, 3, []QueryDelta{{ID: 1, Left: []roadnet.ObjectID{99}}})},
		{"duplicate updated", NewDelta(6, 3, []QueryDelta{{ID: 1, Updated: []Neighbor{{Obj: 5, Dist: 1}, {Obj: 5, Dist: 2}}}})},
		{"unsorted queries", NewDelta(6, 3, []QueryDelta{{ID: 3}, {ID: 1}})},
	}
	for _, tc := range cases {
		if _, err := tc.d.Apply(base); err == nil {
			t.Errorf("%s: Apply accepted an invalid delta", tc.name)
		}
	}
	if _, err := NewDelta(6, 3, nil).Apply(nil); err == nil {
		t.Error("Apply accepted a nil base snapshot")
	}
}

// applyReference is QueryDelta.apply as a direct reading of its contract:
// every previous entry is checked against Left and Updated by a scan, and
// the union is sorted.
func applyReference(qd *QueryDelta, prev []Neighbor) ([]Neighbor, error) {
	touched := func(obj roadnet.ObjectID) bool {
		return slices.Contains(qd.Left, obj) ||
			slices.ContainsFunc(qd.Updated, func(nb Neighbor) bool { return nb.Obj == obj })
	}
	out := make([]Neighbor, 0, len(prev)+len(qd.Updated))
	for _, nb := range prev {
		if !touched(nb.Obj) {
			out = append(out, nb)
		}
	}
	for _, o := range qd.Left {
		if !slices.ContainsFunc(prev, func(nb Neighbor) bool { return nb.Obj == o }) {
			return nil, fmt.Errorf("left object %d not in previous result", o)
		}
	}
	for i := range qd.Updated {
		for k := i + 1; k < len(qd.Updated); k++ {
			if qd.Updated[i].Obj == qd.Updated[k].Obj {
				return nil, fmt.Errorf("duplicate updated object %d", qd.Updated[i].Obj)
			}
		}
	}
	out = append(out, qd.Updated...)
	slices.SortFunc(out, neighborCmp)
	return out, nil
}

// neighborCmp is the canonical result order as a comparison.
func neighborCmp(a, b Neighbor) int {
	return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Obj, b.Obj))
}

// TestDeltaApplyMatchesReference holds the merge-based apply to
// applyReference on random query deltas: the engine's shape (canonical
// previous result, Left in its order, Updated canonical) and malformed ones
// (unordered or repeated entries, a Left object not present, a repeated
// Updated object, tied and signed-zero and NaN distances), over object ids
// that are dense, share their low bits or start at math.MinInt32. Errors
// must read the same, and results must agree in order and distance bits.
// One scratch serves every call, as it serves every query of one Apply.
func TestDeltaApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dists := []float64{0, math.Copysign(0, -1), 0.5, 1, 1.5, 2, math.Inf(1), math.NaN()}
	// A trial's objects are base + i*stride for i below objs.
	var base, stride int64
	id := func(i int) roadnet.ObjectID { return roadnet.ObjectID(base + int64(i)*stride) }
	entry := func(objs int) Neighbor {
		d := dists[rng.Intn(len(dists)-1)] // NaN only below
		if rng.Intn(50) == 0 {
			d = math.NaN()
		} else if rng.Intn(3) == 0 {
			d = rng.Float64() * 3
		}
		return Neighbor{Obj: id(rng.Intn(objs)), Dist: d}
	}
	// distinct draws n entries with distinct objects, canonical unless the
	// case is malformed.
	distinct := func(n, objs int, sorted bool) []Neighbor {
		var out []Neighbor
		for len(out) < n {
			nb := entry(objs)
			if !slices.ContainsFunc(out, func(x Neighbor) bool { return x.Obj == nb.Obj }) {
				out = append(out, nb)
			}
		}
		if sorted {
			slices.SortFunc(out, neighborCmp)
		}
		return out
	}
	var touched idtable.Map[uint8]
	var buf []Neighbor
	var errs, merged int
	for trial := 0; trial < 20000; trial++ {
		objs := 4 + rng.Intn(60)
		base = []int64{0, -1000, math.MinInt32}[rng.Intn(3)]
		stride = []int64{1, 1, 256, 65536}[rng.Intn(4)]
		malformed := rng.Intn(4) == 0
		prev := distinct(rng.Intn(min(objs, 50)+1), objs, !malformed || rng.Intn(2) == 0)
		if malformed && len(prev) > 0 && rng.Intn(3) == 0 {
			prev = append(prev, prev[rng.Intn(len(prev))])
		}
		var qd QueryDelta
		for _, nb := range prev {
			if rng.Intn(4) == 0 {
				qd.Left = append(qd.Left, nb.Obj)
			}
		}
		qd.Updated = distinct(rng.Intn(min(objs, 30)+1), objs, !malformed || rng.Intn(2) == 0)
		if malformed {
			switch rng.Intn(4) {
			case 0:
				qd.Left = append(qd.Left, id(objs+rng.Intn(3)))
			case 1:
				if len(qd.Updated) > 0 {
					qd.Updated = append(qd.Updated, Neighbor{Obj: qd.Updated[rng.Intn(len(qd.Updated))].Obj, Dist: 9})
				}
			case 2:
				if len(qd.Left) > 0 {
					qd.Left = append(qd.Left, qd.Left[0])
				}
			}
			rng.Shuffle(len(qd.Left), func(i, j int) { qd.Left[i], qd.Left[j] = qd.Left[j], qd.Left[i] })
		}
		want, wantErr := applyReference(&qd, prev)
		got, gotErr := qd.apply(prev, &touched, &buf)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, want %v\nprev %v\ndelta %+v", trial, gotErr, wantErr, prev, qd)
		}
		if wantErr != nil {
			errs++
			continue
		}
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i].Obj == want[i].Obj && math.Float64bits(got[i].Dist) == math.Float64bits(want[i].Dist)
		}
		if !same {
			t.Fatalf("trial %d: apply = %v, want %v\nprev %v\ndelta %+v", trial, got, want, prev, qd)
		}
		if len(got) > 1 {
			merged++
		}
	}
	if errs < 1000 || merged < 10000 {
		t.Fatalf("%d failing and %d multi-entry cases of 20000: the generator misses a shape", errs, merged)
	}
}

// BenchmarkDeltaApply applies one epoch's delta in serve_durable's shape
// (2,500 queries at k = 50, every result changed: 2 entries leave, 2
// enter and 14 change distance) to its predecessor, as a delta subscriber
// does once per tick.
func BenchmarkDeltaApply(b *testing.B) {
	const nq, k = 2500, 50
	rng := rand.New(rand.NewSource(1))
	prev := &Snapshot{epoch: 1}
	var qs []QueryDelta
	for q := 0; q < nq; q++ {
		row := make([]Neighbor, k)
		for i := range row {
			row[i] = Neighbor{Obj: roadnet.ObjectID(rng.Intn(1 << 20)), Dist: rng.Float64()}
		}
		slices.SortFunc(row, neighborCmp)
		qd := QueryDelta{ID: QueryID(q)}
		for _, i := range rng.Perm(k)[:16] {
			if len(qd.Left) < 2 {
				qd.Left = append(qd.Left, row[i].Obj)
				continue
			}
			qd.Updated = append(qd.Updated, Neighbor{Obj: row[i].Obj, Dist: rng.Float64()})
		}
		for len(qd.Updated) < 16 {
			qd.Updated = append(qd.Updated, Neighbor{Obj: roadnet.ObjectID(1<<20 + rng.Intn(1<<20)), Dist: rng.Float64()})
		}
		slices.SortFunc(qd.Updated, neighborCmp)
		prev.ids, prev.res = append(prev.ids, QueryID(q)), append(prev.res, row)
		qs = append(qs, qd)
	}
	d := NewDelta(2, 1, qs)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := d.Apply(prev); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	d := NewDelta(12, 9, []QueryDelta{
		{ID: 1, Removed: true},
		{ID: 4, Left: []roadnet.ObjectID{7, 9}, Updated: []Neighbor{{Obj: 3, Dist: 1.25}, {Obj: 8, Dist: 2.5}}},
		{ID: 9, Updated: []Neighbor{{Obj: 1, Dist: 0.125}}},
	})
	enc := d.AppendBinary(nil)
	got, err := UnmarshalDelta(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if re := got.AppendBinary(nil); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs:\n got %x\nwant %x", re, enc)
	}
	if got.Epoch() != 12 || got.Timestamp() != 9 || got.Len() != 3 {
		t.Fatalf("decoded header %d/%d/%d", got.Epoch(), got.Timestamp(), got.Len())
	}
	// Truncations of a valid encoding must all fail cleanly.
	for i := 0; i < len(enc); i++ {
		if _, err := UnmarshalDelta(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", i)
		}
	}
}
