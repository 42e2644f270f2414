package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"roadknn/internal/roadnet"
)

// This file implements the epoch-versioned snapshot read path of the
// serving runtime. An engine built with Options{Serving: true} publishes,
// after every Step / Register / Unregister, an immutable Snapshot of all
// query results via one atomic pointer flip; Result and Snapshot reads are
// then plain atomic loads — lock-free, safe from any number of goroutines
// concurrently with Step, and never blocking it (or blocked by it).
//
// Publication is copy-on-write with structural sharing: a new Snapshot
// copies only the result slices of queries whose k-NN set actually changed
// this step — unchanged queries share the previous snapshot's (immutable)
// slices — so the steady-state *allocation* cost is proportional to the
// result churn. (The publish itself still walks all Q rows of the engine's
// query table, in order: a content comparison per query, nothing collected
// or sorted.) The affected-query set that walk
// computes is no longer discarded: with Options{Deltas: true} it is
// published as a per-epoch Delta on the new Snapshot (see delta.go), the
// churn-proportional currency of the serving layer's delta streaming.
// Readers holding an old Snapshot keep a fully consistent view for as long
// as they like; reclamation is the garbage collector's job.

// Snapshot is an immutable view of every registered query's k-NN result
// at one consistent engine timestamp. All accessors are safe for
// concurrent use; the returned Neighbor slices must not be modified.
type Snapshot struct {
	epoch uint64
	stamp uint64
	ids   []QueryID    // registered queries, ascending
	res   [][]Neighbor // res[i] is ids[i]'s result
	// delta describes the change from the previous epoch (nil on the
	// initial snapshot, after a recovery restore, or when the engine was
	// built without Options.Deltas). Each snapshot holds only its own
	// delta, never a chain: a reader that wants history keeps the deltas (the
	// serving layer's broker does) and lets the old snapshots go — at high
	// churn copy-on-write shares nothing, and every retained snapshot pins
	// its own full set of rows.
	delta *Delta
	// crcOnce/crcVal memoize CRC32: with replication the same snapshot's
	// checksum is needed by the WAL tick, the follower verification and
	// the stats endpoint, and immutability makes the value cacheable.
	crcOnce sync.Once
	crcVal  uint32
}

// Delta returns how this snapshot differs from its predecessor (the
// snapshot at Epoch()-1), or nil when unavailable: on the initial
// snapshot, after a recovery restore, or when the engine was built
// without Options{Deltas: true}. A nil return means a subscriber cannot
// advance incrementally and must resynchronize from the full snapshot.
func (s *Snapshot) Delta() *Delta { return s.delta }

// Epoch returns the publication sequence number: it increases by exactly
// one with every published snapshot (steps and registration changes), so
// readers can detect missed versions and long-pollers can wait for
// "anything newer than e".
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Timestamp returns how many Step calls the engine had applied when this
// snapshot was published. Several epochs may share a timestamp when
// queries are registered between steps.
func (s *Snapshot) Timestamp() uint64 { return s.stamp }

// Len returns the number of registered queries in the snapshot.
func (s *Snapshot) Len() int { return len(s.ids) }

// At returns the i-th query (in ascending QueryID order) and its result.
func (s *Snapshot) At(i int) (QueryID, []Neighbor) { return s.ids[i], s.res[i] }

// Result returns query id's k-NN set, sorted by ascending distance (ties
// by object id), or nil if id is not registered in this snapshot.
func (s *Snapshot) Result(id QueryID) []Neighbor {
	res, _ := s.Lookup(id)
	return res
}

// Lookup is Result plus a registration flag, distinguishing "registered
// with an empty result" from "not registered" (binary search over the
// sorted query ids).
func (s *Snapshot) Lookup(id QueryID) ([]Neighbor, bool) {
	if i, ok := slices.BinarySearch(s.ids, id); ok {
		return s.res[i], true
	}
	return nil, false
}

// publisher is the engine-side writer of the snapshot store. It is
// embedded in every engine; with serving disabled it only counts steps.
// All fields except cur are owned by the engine's single mutator
// goroutine (the one calling Step/Register/Unregister).
type publisher struct {
	serving bool
	// deltas additionally attaches a per-epoch Delta to every published
	// snapshot, derived from the COW diff below.
	deltas bool
	epoch  uint64
	stamp  uint64
	// version is the query table's at the last publication.
	version uint64
	// updBuf/leftBuf are the reused arenas one epoch's diffResult calls
	// append to, and spans where each diffed query's entries end in them;
	// sealDelta copies both out at their exact size when the walk ends.
	updBuf  []Neighbor
	leftBuf []roadnet.ObjectID
	spans   []deltaSpan
	cur     atomic.Pointer[Snapshot]
}

// deltaSpan locates one diffed query's entries in the publisher's arenas:
// the query is the epoch's q-th QueryDelta, its Left entries end at leftBuf
// [left] and its Updated entries at updBuf[upd]; each starts where the span
// before it ends.
type deltaSpan struct{ q, left, upd int }

// init configures the publisher. With serving enabled an empty epoch-0
// snapshot is installed immediately so Snapshot() is never nil on a
// serving engine. Deltas implies serving (a delta without the snapshot
// read path has no consumer).
func (p *publisher) init(o Options) {
	p.serving = o.Serving || o.Deltas
	p.deltas = o.Deltas
	if p.serving {
		p.cur.Store(&Snapshot{})
	}
}

// tick records one applied Step (tracked whether or not serving is on).
func (p *publisher) tick() { p.stamp++ }

// snapshot returns the latest published snapshot, or nil when serving is
// disabled. Safe for concurrent use.
func (p *publisher) snapshot() *Snapshot { return p.cur.Load() }

// restore seeds the publication clock to (epoch, stamp) after a recovery
// rebuild. A recovered engine is reconstructed by replaying a compressed
// history (checkpoint install batch + WAL tail), so its step/publish
// counters lag the original's; restore re-aligns them and republishes the
// current results under the restored numbers, letting subsequent epochs
// continue the pre-crash sequence. Must be called from the engine's
// mutator goroutine, like Step.
func (p *publisher) restore(epoch, stamp uint64) {
	p.epoch, p.stamp = epoch, stamp
	if !p.serving {
		return
	}
	cur := p.cur.Load()
	p.cur.Store(&Snapshot{epoch: epoch, stamp: stamp, ids: cur.ids, res: cur.res})
}

// result is Engine.Result: the latest snapshot's row on a serving engine,
// the engine-side result found through the query table otherwise.
func (p *publisher) result(t *queryTable, id QueryID) []Neighbor {
	if snap := p.snapshot(); snap != nil {
		return snap.Result(id)
	}
	if r := t.find(id); r != nil {
		return r.result()
	}
	return nil
}

// publish installs a new snapshot over the query table, walked in order:
// each row supplies its id and its query's current result. Results whose
// content is unchanged from the previous snapshot share its slices; changed
// ones are copied, because the engine-side slices are rewritten in place by
// the next finalize. This is the one publication entry point the engines
// call. No-op when serving is disabled.
func (p *publisher) publish(t *queryTable) {
	if !p.serving {
		return
	}
	rows, prev := t.rows, p.cur.Load()
	p.epoch++
	snap := &Snapshot{epoch: p.epoch, stamp: p.stamp, ids: prev.ids}
	// While no query was installed or terminated since the last publication
	// — the common steady-state shape — the previous (immutable) ids are
	// shared outright and res stays nil until the first changed result: a
	// quiet step publishes a new epoch with zero slice allocation.
	var res [][]Neighbor
	if t.version != p.version {
		p.version = t.version
		snap.ids, res = t.ids(), make([][]Neighbor, len(rows))
	}
	// dq accumulates the per-epoch delta (ascending by id, the walk order)
	// when delta emission is on; churn-proportional allocation, like the
	// COW copies themselves.
	var dq []QueryDelta
	j := 0 // merge cursor into prev.ids (both lists ascend)
	for i := range rows {
		id, cur := rows[i].id, rows[i].result()
		for ; j < len(prev.ids) && prev.ids[j] < id; j++ {
			if p.deltas {
				dq = append(dq, QueryDelta{ID: prev.ids[j], Removed: true})
			}
		}
		known := j < len(prev.ids) && prev.ids[j] == id
		var row []Neighbor
		if known && slices.Equal(prev.res[j], cur) {
			row = prev.res[j]
		} else {
			row = slices.Clone(cur)
			if res == nil { // same ids as prev's: rows i and j coincide
				res = make([][]Neighbor, len(rows))
				copy(res[:i], prev.res[:i])
			}
			switch {
			case !p.deltas:
			case known:
				p.diffResult(prev.res[j], row)
				p.spans = append(p.spans, deltaSpan{q: len(dq), left: len(p.leftBuf), upd: len(p.updBuf)})
				dq = append(dq, QueryDelta{ID: id})
			default: // newly registered query: its whole result enters
				dq = append(dq, QueryDelta{ID: id, Updated: row})
			}
		}
		if res != nil {
			res[i] = row
		}
		if known {
			j++
		}
	}
	if res == nil {
		res = prev.res
	}
	snap.res = res
	if p.deltas {
		for ; j < len(prev.ids); j++ {
			dq = append(dq, QueryDelta{ID: prev.ids[j], Removed: true})
		}
		p.sealDelta(dq)
		snap.delta = &Delta{epoch: snap.epoch, stamp: snap.stamp, Queries: dq}
	}
	p.cur.Store(snap)
}

// diffResult computes one changed query's delta entries — which objects left
// its result and which entries entered or changed distance — and appends them
// to the epoch's arenas. Both inputs are in canonical (distance, object)
// order, so the entries that kept their exact distance pair up in one merge;
// what it leaves over of cur is Updated, and what it leaves over of prev, less
// the objects among those, is Left. The entries follow the inputs' orders, so
// identical histories produce byte-identical deltas on every replica.
func (p *publisher) diffResult(prev, cur []Neighbor) {
	l0, u0 := len(p.leftBuf), len(p.updBuf)
	upd, left := p.updBuf, p.leftBuf
	for i, j := 0, 0; i < len(prev) || j < len(cur); {
		switch {
		case j == len(cur) || (i < len(prev) && neighborBefore(prev[i], cur[j])):
			left = append(left, prev[i].Obj)
			i++
		case i == len(prev) || neighborBefore(cur[j], prev[i]):
			upd = append(upd, cur[j])
			j++
		default: // same object at an equal distance: unchanged if the bits are
			if math.Float64bits(prev[i].Dist) != math.Float64bits(cur[j].Dist) {
				upd = append(upd, cur[j])
			}
			i, j = i+1, j+1
		}
	}
	gone := left[:l0] // an object left over on both sides only changed distance
	for _, obj := range left[l0:] {
		if !slices.ContainsFunc(upd[u0:], func(nb Neighbor) bool { return nb.Obj == obj }) {
			gone = append(gone, obj)
		}
	}
	p.updBuf, p.leftBuf = upd, gone
}

// sealDelta ends an epoch's diff: the arenas are copied into one []Neighbor
// and one []ObjectID of exactly their size — the delta outlives the
// publisher's buffers, and two allocations an epoch replace two per changed
// query — and every diffed QueryDelta is handed its capped sub-slice, nil
// where empty (a decoded delta has nil there, and equality tests and the
// JSON encoders' omitempty tell the two apart).
func (p *publisher) sealDelta(dq []QueryDelta) {
	left := append(make([]roadnet.ObjectID, 0, len(p.leftBuf)), p.leftBuf...)
	upd := append(make([]Neighbor, 0, len(p.updBuf)), p.updBuf...)
	l0, u0 := 0, 0
	for _, sp := range p.spans {
		if sp.left > l0 {
			dq[sp.q].Left = left[l0:sp.left:sp.left]
		}
		if sp.upd > u0 {
			dq[sp.q].Updated = upd[u0:sp.upd:sp.upd]
		}
		l0, u0 = sp.left, sp.upd
	}
	p.leftBuf, p.updBuf, p.spans = p.leftBuf[:0], p.updBuf[:0], p.spans[:0]
}

// neighborBefore is the canonical result order: by distance, ties by object
// id.
func neighborBefore(a, b Neighbor) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.Obj < b.Obj)
}
