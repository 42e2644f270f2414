package core

import (
	"math"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// candEntry is one candidate: the object, its network distance from the
// query, and its cached position (flattened so an entry is 24 bytes). The
// cache lets re-derivation loops skip the object-registry lookup: a
// candidate's position can only go stale by the object moving, and a moving
// candidate always appears in the touched list — it lies on a registered
// edge — which refreshes the cache.
type candEntry struct {
	dist float64
	frac float64
	obj  roadnet.ObjectID
	edge graph.EdgeID
}

func (e *candEntry) pos() roadnet.Position { return roadnet.Position{Edge: e.edge, Frac: e.frac} }

// before reports whether e sorts before an entry (d, obj): by distance, ties
// by object id.
func (e *candEntry) before(d float64, obj roadnet.ObjectID) bool {
	return e.dist < d || (e.dist == d && e.obj < obj)
}

// candStore is the one candidate store behind direct monitors, node
// monitors, grouped-query evaluation (one per worker arena) and OVH. It
// de-duplicates by object id keeping the minimum distance per object (paper
// §4.1: an object may be reached from both endpoints of a non-tree edge)
// and holds its entries in ascending (dist, obj) order at all times: kth()
// — the expansion's moving stop bound q.kNN_dist, consulted after every
// offer and every heap pop — is a read of rank k, and finalize rewrites the
// result only from the first rank that changed.
//
// Beyond the k-th the store keeps a reserve: what an expansion scanned
// farther out is retained instead of rejected, up to reserveCap(k) entries.
// cover bounds what that is worth: every object the owner ever offered at a
// distance below cover is present at its minimum offered distance. Dropping
// an entry for capacity lowers cover to its distance; the owner lowers it
// to what its search did not reach (monitor invariant 2). Owners that
// recompute from scratch every time (grouped evaluation, OVH) ignore it.
//
// Membership is a flat open-addressing table in the store's own arrays (the
// treestore.go idiom: Fibonacci hash, backward-shift delete, no tombstones,
// reset is a fill, no allocation at steady state) mapping an object to its
// current distance, from which its rank follows by binary search — ranks
// shift under every insertion, distances do not. The zero value is usable
// after reset.
type candStore struct {
	k     int
	ents  []candEntry
	cover float64

	tabObj  []roadnet.ObjectID // noObj marks an empty slot
	tabDist []float64
	mask    uint32
	// The object whose id equals the empty-slot marker never enters the
	// table; these two fields are its slot.
	oddIn   bool
	oddDist float64

	result []Neighbor // what finalize last returned; rewritten in place
	dirty  int        // lowest rank changed since
}

// noObj marks an empty table slot. Object ids are arbitrary int32s, so the
// one object that carries this id is tracked outside the table.
const noObj = roadnet.ObjectID(math.MinInt32)

const candMinTable = 16

// reserveCap is the most entries a store targeting k neighbors holds: the
// k-NN set plus a reserve of a quarter as many again and a dozen. What lies
// between the k-th and the nearest unverified node is a matter of object
// density and frontier width, not of k (about ten objects under Table 2
// for k from 10 to 200), hence the constant part.
func reserveCap(k int) int { return k + k/4 + 12 }

// reset clears the store, retaining capacity, and re-targets it to k. The
// previous result stays readable for finalize's change report.
func (c *candStore) reset(k int) {
	c.k = k
	c.ents = c.ents[:0]
	c.cover = math.Inf(1)
	if c.tabObj == nil {
		c.tabObj = make([]roadnet.ObjectID, candMinTable)
		c.tabDist = make([]float64, candMinTable)
		c.mask = candMinTable - 1
	}
	c.clearTable()
	c.dirty = 0
}

// len returns the number of candidates, reserve included.
func (c *candStore) len() int { return len(c.ents) }

// kth returns the current k-th smallest distance (+Inf with fewer than k
// candidates).
func (c *candStore) kth() float64 {
	if len(c.ents) < c.k {
		return math.Inf(1)
	}
	return c.ents[c.k-1].dist
}

// contains reports whether obj is currently a candidate.
func (c *candStore) contains(obj roadnet.ObjectID) bool {
	_, ok := c.lookup(obj)
	return ok
}

// lowerCover records that the owner's search is not complete at radius r.
func (c *candStore) lowerCover(r float64) {
	if r < c.cover {
		c.cover = r
	}
}

// add offers object obj at distance d and position pos, keeping the minimum
// distance per object. It reports whether the store changed.
func (c *candStore) add(obj roadnet.ObjectID, d float64, pos roadnet.Position) bool {
	cur, ok := c.lookup(obj)
	if !ok {
		return c.insert(obj, d, pos)
	}
	if d >= cur {
		return false
	}
	c.move(c.rank(cur, obj), d, pos)
	return true
}

// setExact overwrites the entry of obj regardless of the previous distance
// (used when stale entries are re-derived from fresh positions). obj need
// not be present yet.
func (c *candStore) setExact(obj roadnet.ObjectID, d float64, pos roadnet.Position) {
	if cur, ok := c.lookup(obj); ok {
		c.move(c.rank(cur, obj), d, pos)
	} else {
		c.insert(obj, d, pos)
	}
}

// remove deletes obj from the store if present.
func (c *candStore) remove(obj roadnet.ObjectID) {
	if cur, ok := c.lookup(obj); ok {
		c.removeAt(c.rank(cur, obj))
	}
}

// rank returns the first rank whose entry does not sort before (d, obj): the
// rank of obj's entry when d is its distance, its insertion point otherwise.
func (c *candStore) rank(d float64, obj roadnet.ObjectID) int {
	lo, hi := 0, len(c.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ents[mid].before(d, obj) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert places a new object by binary insertion. A store at capacity keeps
// the reserveCap smallest: whichever entry falls off the end lowers cover.
// The entries grow by doubling from 16 but never past reserveCap(k), the
// most they can hold; a store is not sized up front, since k may be huge.
func (c *candStore) insert(obj roadnet.ObjectID, d float64, pos roadnet.Position) bool {
	n := len(c.ents)
	if n == reserveCap(c.k) {
		last := &c.ents[n-1]
		if last.before(d, obj) {
			c.lowerCover(d)
			return false
		}
		c.lowerCover(last.dist)
		c.tabDelete(last.obj)
		n--
		c.ents = c.ents[:n]
	} else if n == cap(c.ents) {
		ents := make([]candEntry, n, min(reserveCap(c.k), max(2*n, 16)))
		copy(ents, c.ents)
		c.ents = ents
	}
	r := c.rank(d, obj)
	c.ents = c.ents[:n+1]
	copy(c.ents[r+1:], c.ents[r:])
	c.ents[r] = candEntry{dist: d, frac: pos.Frac, obj: obj, edge: pos.Edge}
	c.tabPut(obj, d)
	c.dirty = min(c.dirty, r)
	return true
}

// move re-ranks the entry at rank r to distance d and refreshes its cached
// position.
func (c *candStore) move(r int, d float64, pos roadnet.Position) {
	e := c.ents[r]
	e.frac, e.edge = pos.Frac, pos.Edge
	if d == e.dist {
		c.ents[r] = e
		return
	}
	to := c.rank(d, e.obj)
	if to > r {
		to-- // the insertion point counted the entry itself
		copy(c.ents[r:to], c.ents[r+1:to+1])
	} else {
		copy(c.ents[to+1:r+1], c.ents[to:r])
	}
	e.dist = d
	c.ents[to] = e
	c.tabPut(e.obj, d)
	c.dirty = min(c.dirty, r, to)
}

func (c *candStore) removeAt(r int) {
	c.tabDelete(c.ents[r].obj)
	c.ents = append(c.ents[:r], c.ents[r+1:]...)
	c.dirty = min(c.dirty, r)
}

// entries exposes the ordered entries to a bulk re-derivation, which may
// overwrite every dist (+Inf to evict) and must call restore afterwards.
func (c *candStore) entries() []candEntry { return c.ents }

// restore re-establishes order and membership after the distances were
// overwritten in place: an insertion sort (the entries were ordered before
// and mostly still are), then +Inf entries are dropped off the end and the
// table is rebuilt.
func (c *candStore) restore() {
	for i := 1; i < len(c.ents); i++ {
		e := c.ents[i]
		j := i
		for ; j > 0; j-- {
			if c.ents[j-1].before(e.dist, e.obj) {
				break
			}
			c.ents[j] = c.ents[j-1]
		}
		c.ents[j] = e
	}
	n := len(c.ents)
	for n > 0 && math.IsInf(c.ents[n-1].dist, 1) {
		n--
	}
	c.ents = c.ents[:n]
	c.clearTable()
	for i := range c.ents {
		c.tabPut(c.ents[i].obj, c.ents[i].dist)
	}
	c.dirty = 0
}

// trim drops what the reserve cannot vouch for: every entry beyond the k-th
// at or beyond cover.
func (c *candStore) trim() {
	n := len(c.ents)
	for n > c.k && c.ents[n-1].dist >= c.cover {
		n--
		c.tabDelete(c.ents[n].obj)
	}
	c.ents = c.ents[:n]
}

// finalize trims the reserve to cover and returns the best k (ties broken
// by object id for determinism), rewriting the result from the first rank
// that changed. The slice remains owned by the store and is valid until the
// next finalize; changed reports whether it differs from what the previous
// finalize returned.
func (c *candStore) finalize() (result []Neighbor, changed bool) {
	c.trim()
	n := min(c.k, len(c.ents))
	old := len(c.result)
	if n != old {
		changed = true
		if n > cap(c.result) {
			c.result = slices.Grow(c.result[:old], n-old)
		}
		c.result = c.result[:n]
	}
	for i := c.dirty; i < n; i++ {
		nb := Neighbor{Obj: c.ents[i].obj, Dist: c.ents[i].dist}
		if i >= old || c.result[i] != nb {
			c.result[i] = nb
			changed = true
		}
	}
	c.dirty = c.k
	return c.result, changed
}

// candHash spreads object ids multiplicatively (Fibonacci hashing).
func candHash(obj roadnet.ObjectID) uint32 { return uint32(obj) * 2654435761 }

// lookup returns obj's current distance and whether it is a candidate.
func (c *candStore) lookup(obj roadnet.ObjectID) (float64, bool) {
	if obj == noObj {
		return c.oddDist, c.oddIn
	}
	for i := candHash(obj) & c.mask; ; i = (i + 1) & c.mask {
		switch c.tabObj[i] {
		case obj:
			return c.tabDist[i], true
		case noObj:
			return 0, false
		}
	}
}

// tabPut records d as obj's distance, inserting obj if absent.
func (c *candStore) tabPut(obj roadnet.ObjectID, d float64) {
	if obj == noObj {
		c.oddIn, c.oddDist = true, d
		return
	}
	for i := candHash(obj) & c.mask; ; i = (i + 1) & c.mask {
		switch c.tabObj[i] {
		case obj:
			c.tabDist[i] = d
			return
		case noObj:
			c.tabObj[i], c.tabDist[i] = obj, d
			if uint32(len(c.ents))*4 > uint32(len(c.tabObj))*3 {
				c.grow()
			}
			return
		}
	}
}

// tabDelete removes obj with backward-shift deletion: later entries of the
// probe chain that would become unreachable through the vacated slot are
// shifted into it (see treeStore.idxDelete).
func (c *candStore) tabDelete(obj roadnet.ObjectID) {
	if obj == noObj {
		c.oddIn = false
		return
	}
	i := candHash(obj) & c.mask
	for c.tabObj[i] != obj {
		i = (i + 1) & c.mask
	}
	for {
		c.tabObj[i] = noObj
		j := i
		for {
			j = (j + 1) & c.mask
			k := c.tabObj[j]
			if k == noObj {
				return
			}
			if cyclicBetween(i, candHash(k)&c.mask, j) {
				continue
			}
			c.tabObj[i], c.tabDist[i] = k, c.tabDist[j]
			i = j
			break
		}
	}
}

// grow doubles the table and rehashes it from the entries.
func (c *candStore) grow() {
	size := uint32(len(c.tabObj)) * 2
	c.tabObj = make([]roadnet.ObjectID, size)
	c.tabDist = make([]float64, size)
	c.mask = size - 1
	c.clearTable()
	for i := range c.ents {
		c.tabPut(c.ents[i].obj, c.ents[i].dist)
	}
}

// clearTable empties the membership table.
func (c *candStore) clearTable() {
	for i := range c.tabObj {
		c.tabObj[i] = noObj
	}
	c.oddIn = false
}
