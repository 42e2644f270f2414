// Package idtable maps int32 ids to dense, stable int32 rows: the one
// object-id index behind the network's object registry and the serving
// batcher. A caller keeps its per-object state in plain slices indexed by
// row; the table only answers which row an id owns.
package idtable

// Table is an open-addressing hash table from id to row: linear probing
// over a power-of-two slot array, at most 7/8 full, with backward-shift
// deletion (no tombstones) and Fibonacci hashing, so dense ids spread as
// well as sparse ones.
//
// Rows are handed out densely. A new id takes the most recently released
// row, else the next never-used one, so a caller's row-indexed slices grow
// by one append at a time and never exceed the most ids held at once. A
// live id keeps its row until it is deleted. Row assignment is a pure
// function of the operation sequence.
//
// The zero value is an empty table. A Table is not safe for concurrent
// mutation; Find may run concurrently with other Finds.
type Table struct {
	slots []slot
	shift uint8   // 32 - log2(len(slots))
	n     int     // ids held
	rows  int32   // rows ever handed out
	free  []int32 // released rows, reused last-in first-out
}

// slot holds one id and its row plus one, so the zero slot is empty.
type slot struct {
	id  int32
	ref int32
}

const minSlots = 16

// Len returns the number of ids held.
func (t *Table) Len() int { return t.n }

// home is id's first probe slot: the top bits of its golden-ratio product.
func (t *Table) home(id int32) uint32 { return uint32(id) * 0x9E3779B9 >> t.shift }

// probe returns the slot holding id, or the empty slot that ends id's
// probe run. The table must have slots.
func (t *Table) probe(id int32) uint32 {
	mask := uint32(len(t.slots) - 1)
	i := t.home(id)
	for t.slots[i].ref != 0 && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// Find returns id's row.
func (t *Table) Find(id int32) (int32, bool) {
	if t.n == 0 {
		return -1, false
	}
	s := t.slots[t.probe(id)]
	return s.ref - 1, s.ref != 0
}

// Insert returns id's row. added reports whether id was new, in which case
// the row is a released one or the next unused one.
func (t *Table) Insert(id int32) (row int32, added bool) {
	if row, ok := t.Find(id); ok {
		return row, false
	}
	if (t.n+1)*8 > len(t.slots)*7 {
		t.grow()
	}
	if n := len(t.free); n > 0 {
		row = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		row = t.rows
		t.rows++
	}
	t.slots[t.probe(id)] = slot{id: id, ref: row + 1}
	t.n++
	return row, true
}

// Delete removes id and releases its row for the next new id.
func (t *Table) Delete(id int32) (int32, bool) {
	if t.n == 0 {
		return -1, false
	}
	i := t.probe(id)
	row := t.slots[i].ref - 1
	if row < 0 {
		return -1, false
	}
	// Backward shift: walk the rest of the probe run and move back into the
	// hole every entry whose home does not lie in (hole, j], i.e. whose
	// probe distance reaches at least as far back as the hole.
	mask := uint32(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].ref != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
	t.free = append(t.free, row)
	return row, true
}

// grow doubles the slot array and re-places every id.
func (t *Table) grow() {
	old := t.slots
	n := max(minSlots, 2*len(old))
	t.slots = make([]slot, n)
	t.shift = 32
	for ; n > 1; n >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if s.ref != 0 {
			t.slots[t.probe(s.id)] = s
		}
	}
}
