package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"roadknn/internal/frame"
	"roadknn/internal/idtable"
	"roadknn/internal/roadnet"
)

// This file implements per-epoch result deltas, the churn-proportional
// companion of the snapshot read path. The copy-on-write publisher already
// diffs every query's new result against the previous snapshot
// (slices.Equal) to decide what to copy; with Options{Deltas: true} that
// diff is kept instead of discarded: each published Snapshot carries a
// Delta describing exactly which queries changed and how, so a subscriber
// holding epoch e-1 can reconstruct epoch e bit-exactly from the delta
// alone — the serving layer's delta streaming sends only churn over the
// wire instead of resending full result sets.

// Delta describes how one published Snapshot differs from its predecessor
// (the snapshot at epoch Epoch()-1). It is immutable once published; the
// Queries slice is ascending by QueryID and must not be modified.
type Delta struct {
	epoch uint64
	stamp uint64
	// Queries lists every query whose registration or result changed this
	// epoch, ascending by ID. Queries absent from the list are unchanged.
	Queries []QueryDelta
}

// NewDelta assembles a delta from its components. Engines emit deltas
// themselves; this constructor is for subscribers that decoded one from a
// transport encoding and want to Apply it. Queries must be ascending by
// ID (Apply validates).
func NewDelta(epoch, stamp uint64, queries []QueryDelta) *Delta {
	return &Delta{epoch: epoch, stamp: stamp, Queries: queries}
}

// Epoch returns the epoch this delta produces: applying it to the snapshot
// at Epoch()-1 reconstructs the snapshot at Epoch().
func (d *Delta) Epoch() uint64 { return d.epoch }

// Timestamp returns the engine timestamp of the produced snapshot.
func (d *Delta) Timestamp() uint64 { return d.stamp }

// Len returns the number of changed queries.
func (d *Delta) Len() int { return len(d.Queries) }

// QueryDelta is one query's change within an epoch. Exactly one of three
// shapes occurs:
//
//   - Removed true: the query was unregistered (Left and Updated empty);
//   - a query absent from the previous snapshot: newly registered, Updated
//     holds its full result and Left is empty;
//   - otherwise: an in-place result change — Left lists the objects that
//     dropped out of the k-NN set, Updated the entries that entered it or
//     whose distance changed (with their new distances). Entries in
//     neither kept their exact distance; rank changes among them follow
//     from re-sorting.
type QueryDelta struct {
	ID      QueryID
	Removed bool
	Left    []roadnet.ObjectID
	Updated []Neighbor
}

// Apply reconstructs the snapshot at d.Epoch() from its predecessor. The
// produced snapshot's content is bit-exact: encoding it with AppendBinary
// yields the same bytes as the originally published snapshot. Apply
// validates the delta against prev and fails on any inconsistency (wrong
// epoch, removal of an unknown query, a Left object not present), so a
// protocol bug surfaces as an error instead of silent divergence.
func (d *Delta) Apply(prev *Snapshot) (*Snapshot, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: delta apply: nil base snapshot")
	}
	if d.epoch != prev.epoch+1 {
		return nil, fmt.Errorf("core: delta for epoch %d does not follow snapshot epoch %d", d.epoch, prev.epoch)
	}
	next := &Snapshot{epoch: d.epoch, stamp: d.stamp}
	ids := make([]QueryID, 0, len(prev.ids)+len(d.Queries))
	res := make([][]Neighbor, 0, len(prev.ids)+len(d.Queries))
	var touched idtable.Map[uint8] // apply's scratch, reused from query to query
	var buf []Neighbor
	j := 0 // cursor into prev.ids (both lists ascend)
	for qi := range d.Queries {
		qd := &d.Queries[qi]
		if qi > 0 && d.Queries[qi-1].ID >= qd.ID {
			return nil, fmt.Errorf("core: delta queries not ascending at id %d", qd.ID)
		}
		for j < len(prev.ids) && prev.ids[j] < qd.ID {
			ids = append(ids, prev.ids[j])
			res = append(res, prev.res[j])
			j++
		}
		var old []Neighbor
		exists := j < len(prev.ids) && prev.ids[j] == qd.ID
		if exists {
			old = prev.res[j]
			j++
		}
		if qd.Removed {
			if !exists {
				return nil, fmt.Errorf("core: delta removes unknown query %d", qd.ID)
			}
			if len(qd.Left) > 0 || len(qd.Updated) > 0 {
				return nil, fmt.Errorf("core: delta for removed query %d carries entries", qd.ID)
			}
			continue
		}
		nr, err := qd.apply(old, &touched, &buf)
		if err != nil {
			return nil, fmt.Errorf("core: delta query %d: %w", qd.ID, err)
		}
		ids = append(ids, qd.ID)
		res = append(res, nr)
	}
	for ; j < len(prev.ids); j++ {
		ids = append(ids, prev.ids[j])
		res = append(res, prev.res[j])
	}
	next.ids, next.res = ids, res
	return next, nil
}

// apply rebuilds one query's result: entries in neither Left nor Updated
// keep their exact distances, Left's drop out and Updated's come in, all in
// canonical order. t maps the Updated objects to 0 and Left's to 1, then 2
// once found in prev; filter holds their low bits. Kept entries and Updated
// are canonical runs and merge; one out of order, or a NaN, makes it a sort.
func (qd *QueryDelta) apply(prev []Neighbor, t *idtable.Map[uint8], buf *[]Neighbor) ([]Neighbor, error) {
	t.Clear()
	var filter [4]uint64
	for _, nb := range qd.Updated {
		t.Put(int32(nb.Obj), 0)
		filter[nb.Obj>>6&3] |= 1 << (nb.Obj & 63)
	}
	dup := t.Len() < len(qd.Updated)
	for _, o := range qd.Left {
		t.Put(int32(o), 1)
		filter[o>>6&3] |= 1 << (o & 63)
	}
	a, b := (*buf)[:0], qd.Updated
	for _, nb := range prev {
		if filter[nb.Obj>>6&3]&(1<<(nb.Obj&63)) == 0 {
			a = append(a, nb)
		} else if v, ok := t.Get(int32(nb.Obj)); !ok {
			a = append(a, nb)
		} else if v != 0 {
			t.Put(int32(nb.Obj), 2)
		}
	}
	*buf = append(a, b...)
	for _, o := range qd.Left {
		if v, _ := t.Get(int32(o)); v != 2 {
			return nil, fmt.Errorf("left object %d not in previous result", o)
		}
	}
	for i := 0; dup && i < len(qd.Updated); i++ {
		if o := qd.Updated[i].Obj; slices.ContainsFunc(qd.Updated[i+1:], func(x Neighbor) bool { return x.Obj == o }) {
			return nil, fmt.Errorf("duplicate updated object %d", o)
		}
	}
	out := make([]Neighbor, len(*buf))
	for k := range out {
		if len(b) == 0 || len(a) > 0 && neighborBefore(a[0], b[0]) {
			out[k], a = a[0], a[1:]
		} else {
			out[k], b = b[0], b[1:]
		}
		if k > 0 && !neighborBefore(out[k-1], out[k]) {
			copy(out, *buf)
			slices.SortFunc(out, func(a, b Neighbor) int { return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Obj, b.Obj)) })
			break
		}
	}
	return out, nil
}

// ---- canonical binary encoding ----
//
// Like the snapshot codec, deltas have a deterministic little-endian
// binary form — the unit in which the benchmark harness compares delta
// wire volume against full-snapshot volume, and a fuzzable decode surface:
//
//	u64 epoch | u64 stamp | u32 nQueries
//	per query: i32 id | u8 flags (1 = removed) | u32 nLeft | i32 obj ... |
//	           u32 nUpdated | (i32 obj | u64 float64bits(dist)) ...

const deltaFlagRemoved = 1

// AppendBinary appends the delta's canonical encoding to buf and returns
// the extended slice. Safe for concurrent use (deltas are immutable).
func (d *Delta) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, d.epoch)
	buf = binary.LittleEndian.AppendUint64(buf, d.stamp)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Queries)))
	for i := range d.Queries {
		qd := &d.Queries[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(qd.ID))
		var fl byte
		if qd.Removed {
			fl |= deltaFlagRemoved
		}
		buf = append(buf, fl)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(qd.Left)))
		for _, o := range qd.Left {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(qd.Updated)))
		for _, nb := range qd.Updated {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(nb.Obj))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(nb.Dist))
		}
	}
	return buf
}

// EncodedLen returns len(d.AppendBinary(nil)) without encoding: what the
// delta weighs on the wire and, near enough, in memory.
func (d *Delta) EncodedLen() int {
	n := 20 // epoch, stamp, query count
	for i := range d.Queries {
		n += 13 + 4*len(d.Queries[i].Left) + 12*len(d.Queries[i].Updated)
	}
	return n
}

// UnmarshalDelta decodes a canonical delta encoding. Arbitrary input is
// safe: malformed bytes produce an error, never a panic or an oversized
// allocation.
func UnmarshalDelta(data []byte) (*Delta, error) {
	d := frame.NewCursor(data)
	out := &Delta{
		epoch: d.U64(),
		stamp: d.U64(),
	}
	n := d.Count(13) // id + flags + two counts
	for i := 0; i < n; i++ {
		var qd QueryDelta
		qd.ID = QueryID(d.U32())
		fl := d.Byte()
		if fl&^deltaFlagRemoved != 0 {
			return nil, fmt.Errorf("core: delta query %d: unknown flag bits %#x", qd.ID, fl)
		}
		qd.Removed = fl&deltaFlagRemoved != 0
		if nl := d.Count(4); nl > 0 {
			qd.Left = make([]roadnet.ObjectID, nl)
			for j := range qd.Left {
				qd.Left[j] = roadnet.ObjectID(d.I32())
			}
		}
		if nu := d.Count(12); nu > 0 {
			qd.Updated = make([]Neighbor, nu)
			for j := range qd.Updated {
				qd.Updated[j] = Neighbor{Obj: roadnet.ObjectID(d.I32()), Dist: d.F64()}
			}
		}
		out.Queries = append(out.Queries, qd)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	return out, nil
}
