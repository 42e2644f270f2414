package core

import (
	"cmp"
	"slices"

	"roadknn/internal/roadnet"
)

// queryRow is one registered query: its id and where its state lives.
// Exactly one of mon and grp is set.
type queryRow struct {
	id  QueryID
	mon *monitor  // Direct (and every OVH query): the query's own monitor
	grp *gmaQuery // Grouped: its state in the grouped layer
}

// placement is the row's current position, k and mode.
func (r *queryRow) placement() (roadnet.Position, int, Mode) {
	if r.grp != nil {
		return r.grp.pos, r.grp.k, Grouped
	}
	return r.mon.pos, r.mon.k, Direct
}

// result is the engine-side current result, rewritten in place by the
// query's next evaluation.
func (r *queryRow) result() []Neighbor {
	if r.grp != nil {
		return r.grp.result
	}
	return r.mon.result
}

// queryTable is the paper's query table QT (§4.1), one per engine: the
// registered queries ascending by id, found by binary search. It is the only
// answer to "is id registered, and where is its state" and to "which queries,
// in id order": registration, lookup, publication, rebuild and planning all
// read it by position, nothing collects or sorts ids. An installation or
// termination moves the rows behind it (an append when ids arrive ascending);
// a mode flip swaps the row's pointers in place. Row pointers are valid until
// the next insert or remove.
type queryTable struct {
	rows []queryRow
	// version counts insertions and removals: while it stands still, so does
	// the id list (the publisher shares the previous snapshot's).
	version uint64
}

func (t *queryTable) search(id QueryID) (int, bool) {
	return slices.BinarySearchFunc(t.rows, id, func(r queryRow, id QueryID) int { return cmp.Compare(r.id, id) })
}

// find returns id's row, or nil if id is not registered.
func (t *queryTable) find(id QueryID) *queryRow {
	if i, ok := t.search(id); ok {
		return &t.rows[i]
	}
	return nil
}

// insert adds the row of a newly installed query; a registered id panics
// with Register's message.
func (t *queryTable) insert(r queryRow) {
	i, dup := t.search(r.id)
	if dup {
		panic(dupMsg(r.id))
	}
	t.rows = slices.Insert(t.rows, i, r)
	t.version++
}

// remove deletes and returns id's row, if it is registered.
func (t *queryTable) remove(id QueryID) (r queryRow, ok bool) {
	i, ok := t.search(id)
	if ok {
		r = t.rows[i]
		t.rows = slices.Delete(t.rows, i, i+1)
		t.version++
	}
	return r, ok
}

// ids returns a fresh list of the registered ids, ascending.
func (t *queryTable) ids() []QueryID {
	ids := make([]QueryID, len(t.rows))
	for i := range t.rows {
		ids[i] = t.rows[i].id
	}
	return ids
}
