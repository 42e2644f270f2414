// Package idtable is the one int32 hash index: Map, an open-addressing
// table from int32 keys to values, behind the expansion tree's node index,
// the candidate store's object table and the step's repeated-id check in
// internal/core; and Table, which maps object ids to dense, stable int32
// rows for the network's object registry and the serving batcher. A Table
// caller keeps its per-object state in plain slices indexed by row; the
// table only answers which row an id owns.
package idtable

import "math"

// free marks an empty key slot. It is also a valid key: a Map keeps the
// value of the key that equals it outside the arrays.
const free = math.MinInt32

const minSlots = 16

// Map is an open-addressing hash table from int32 keys to V values: keys
// and values in parallel power-of-two arrays, linear probing from a key's
// Fibonacci home (the top bits of its golden-ratio product, so keys that
// share their low bits spread as well as dense ones), at most 7/8 full,
// with backward-shift deletion (no tombstones). Clear keeps the arrays.
// A removed key's value is left in its slot until the slot is reused, so a
// V should hold no pointers.
//
// Which slot a key occupies depends on the insertion history, so nothing
// a caller reports may depend on slot order; Map offers no iteration.
//
// The zero value is an empty map. A Map is not safe for concurrent
// mutation; Get may run concurrently with other Gets.
type Map[V any] struct {
	keys  []int32 // free marks an empty slot
	vals  []V
	n     int    // keys held, the reserved one included
	mask  uint32 // len(keys) - 1
	shift uint8  // 32 - log2(len(keys))
	// The key equal to free is held here: resIn says whether it is present,
	// and resVal is its value (zero while absent).
	resIn  bool
	resVal V
}

// Len returns the number of keys held.
func (m *Map[V]) Len() int { return m.n }

// Slots returns the length of the key array: what the map holds room for,
// at 7/8 of it.
func (m *Map[V]) Slots() int { return len(m.keys) }

// home is k's first probe slot. The map must have slots. The shift is
// never 32 or more, and masking it lets the compiler drop its guard for
// one that is. Get spells the product out unmasked: calling home, or the
// mask, would push its callers past the inlining budget.
func (m *Map[V]) home(k int32) uint32 { return uint32(k) * 0x9E3779B9 >> (m.shift & 31) }

// Get returns k's value, or the zero V and false when k is absent. A hit
// never tests for the reserved key: that test runs only once the probe
// reaches an empty slot. Get is written to stay within the compiler's
// inlining budget inside its callers' lookups (the tree's get and has, the
// candidate store's lookup): keep it that small.
func (m *Map[V]) Get(k int32) (v V, ok bool) {
	if m.n != 0 {
		for i := uint32(k) * 0x9E3779B9 >> m.shift; m.keys[i] != free; i = (i + 1) & m.mask {
			if m.keys[i] == k {
				return m.vals[i], true
			}
		}
	}
	if k == free {
		return m.resVal, m.resIn
	}
	return
}

// Put sets k's value, inserting k if absent, and reports whether k was new.
func (m *Map[V]) Put(k int32, v V) (added bool) {
	if len(m.keys) == 0 {
		m.grow()
	}
	if k == free {
		added = !m.resIn
		m.resIn, m.resVal = true, v
	} else {
		i := m.probe(k)
		if added = m.keys[i] == free; added && (m.n+1)*8 > len(m.keys)*7 {
			m.grow()
			i = m.probe(k)
		}
		m.keys[i], m.vals[i] = k, v
	}
	if added {
		m.n++
	}
	return added
}

// GetOrPut returns k's value and true when k is present; otherwise it puts
// k with v and returns v and false. It probes once where a Get followed by
// a Put probes twice.
func (m *Map[V]) GetOrPut(k int32, v V) (V, bool) {
	if len(m.keys) == 0 {
		m.grow()
	}
	if k == free {
		if m.resIn {
			return m.resVal, true
		}
		m.resIn, m.resVal = true, v
	} else {
		i := m.probe(k)
		if m.keys[i] == k {
			return m.vals[i], true
		}
		if (m.n+1)*8 > len(m.keys)*7 {
			m.grow()
			i = m.probe(k)
		}
		m.keys[i], m.vals[i] = k, v
	}
	m.n++
	return v, false
}

// probe returns the slot holding k, or the empty slot that ends k's probe
// run. k is not the reserved key, and the map has slots.
func (m *Map[V]) probe(k int32) uint32 {
	i := m.home(k)
	for m.keys[i] != free && m.keys[i] != k {
		i = (i + 1) & m.mask
	}
	return i
}

// Delete removes k and reports whether it was present. It reads no value:
// a caller that needs the one k held gets it first.
func (m *Map[V]) Delete(k int32) (ok bool) {
	if k == free {
		ok = m.resIn
		var zero V
		m.resIn, m.resVal = false, zero
	} else if len(m.keys) != 0 {
		i := m.probe(k)
		if ok = m.keys[i] == k; ok {
			// Backward shift: walk the rest of the probe run and move back
			// into the hole every key whose home does not lie in (hole, j],
			// that is, whose probe distance reaches at least as far back as
			// the hole.
			for j := (i + 1) & m.mask; m.keys[j] != free; j = (j + 1) & m.mask {
				if (j-m.home(m.keys[j]))&m.mask >= (j-i)&m.mask {
					m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
					i = j
				}
			}
			m.keys[i] = free
		}
	}
	if ok {
		m.n--
	}
	return ok
}

// Clear removes every key, keeping the arrays.
func (m *Map[V]) Clear() {
	for i := range m.keys {
		m.keys[i] = free
	}
	var zero V
	m.n, m.resIn, m.resVal = 0, false, zero
}

// grow doubles the arrays (to minSlots from none) and re-places every key.
func (m *Map[V]) grow() {
	keys, vals := m.keys, m.vals
	n := max(minSlots, 2*len(keys))
	m.keys, m.vals, m.mask = make([]int32, n), make([]V, n), uint32(n-1)
	for i := range m.keys {
		m.keys[i] = free
	}
	m.shift = 32
	for ; n > 1; n >>= 1 {
		m.shift--
	}
	for i, k := range keys {
		if k != free {
			j := m.probe(k)
			m.keys[j], m.vals[j] = k, vals[i]
		}
	}
}

// Table is a Map from id to row whose rows are handed out densely. A new id
// takes the most recently released row, else the next never-used one, so a
// caller's row-indexed slices grow by one append at a time and never exceed
// the most ids held at once. A live id keeps its row until it is deleted.
// Row assignment is a pure function of the operation sequence.
//
// The zero value is an empty table. A Table is not safe for concurrent
// mutation; Find may run concurrently with other Finds.
type Table struct {
	ids  Map[int32]
	rows int32   // rows ever handed out
	free []int32 // released rows, reused last-in first-out
}

// Len returns the number of ids held.
func (t *Table) Len() int { return t.ids.Len() }

// Find returns id's row.
func (t *Table) Find(id int32) (int32, bool) { return t.ids.Get(id) }

// Insert returns id's row. added reports whether id was new, in which case
// the row is a released one or the next unused one.
func (t *Table) Insert(id int32) (row int32, added bool) {
	if row, ok := t.ids.Get(id); ok {
		return row, false
	}
	if n := len(t.free); n > 0 {
		row = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		row = t.rows
		t.rows++
	}
	t.ids.Put(id, row)
	return row, true
}

// Delete removes id and releases its row for the next new id.
func (t *Table) Delete(id int32) (int32, bool) {
	row, ok := t.ids.Get(id)
	if ok {
		t.ids.Delete(id)
		t.free = append(t.free, row)
	}
	return row, ok
}
