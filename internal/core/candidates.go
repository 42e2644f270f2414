package core

import (
	"math"
	"slices"

	"roadknn/internal/graph"
	"roadknn/internal/idtable"
	"roadknn/internal/roadnet"
)

// candStore is the one candidate store behind direct monitors, node
// monitors, grouped-query evaluation (one per worker arena) and OVH. It
// de-duplicates by object id keeping the minimum distance per object (paper
// §4.1: an object may be reached from both endpoints of a non-tree edge)
// and holds its keys in ascending (Dist, Obj) order at all times: kth() —
// the expansion's moving stop bound q.kNN_dist, consulted after every offer
// and every heap pop — is a read of rank k, and the result is the first k
// keys themselves: finalize returns a prefix of nb, so a monitor's k-NN
// exists once.
//
// Each key carries, in the parallel edges array, the edge its object was
// last offered on. rebuildIL reads it for the candidates at kNN_dist, and a
// full refresh finds the object's fraction on it (monitor.refreshDist): a
// candidate's position can only go stale by the object moving, and a moving
// candidate always appears in the touched list — it lies on a registered
// edge — which re-keys it.
//
// Beyond the k-th the store keeps a reserve: what an expansion scanned
// farther out is retained instead of rejected, up to reserveCap(k) keys.
// cover bounds what that is worth: every object the owner ever offered at a
// distance below cover is present at its minimum offered distance. Dropping
// a key for capacity lowers cover to its distance; the owner lowers it
// to what its search did not reach (monitor invariant 2). Owners that
// recompute from scratch every time (grouped evaluation, OVH) ignore it.
//
// Membership is an idtable.Map from object to its current distance (the
// tree index's table: no allocation at steady state, reset keeps its
// arrays), from which its rank follows by binary search — ranks shift under
// every insertion, distances do not. The zero value is usable after reset.
type candStore struct {
	k     int
	nb    []Neighbor     // ascending by (Dist, Obj); the first k are the result
	edges []graph.EdgeID // edges[i] is where nb[i].Obj was last offered
	cover float64

	dist idtable.Map[float64] // object -> its key's distance

	// The change report. last is the length of what finalize last returned
	// and dirty the lowest rank written since (k when none below it was).
	// An owner that tracks changes points prev at a buffer of its own before
	// writing: the first write below last copies the returned result there,
	// and finalize compares against it.
	last  int
	dirty int
	prev  *[]Neighbor
}

// reserveCap is the most keys a store targeting k neighbors holds: the
// k-NN set plus a reserve of a quarter as many again and a dozen. What lies
// between the k-th and the nearest unverified node is a matter of object
// density and frontier width, not of k (about ten objects under Table 2
// for k from 10 to 200), hence the constant part.
func reserveCap(k int) int { return k + k/4 + 12 }

// reset clears the store, retaining capacity, and re-targets it to k. For
// the change report it is a write of every rank.
func (c *candStore) reset(k int) {
	c.written(0)
	c.k = k
	c.nb, c.edges = c.nb[:0], c.edges[:0]
	c.cover = math.Inf(1)
	c.dist.Clear()
}

// written records that rank r is about to be written. The first write below
// the last result's length saves that result for a tracking owner.
func (c *candStore) written(r int) {
	if r >= c.dirty {
		return
	}
	if c.prev != nil && r < c.last && c.dirty >= c.last {
		*c.prev = append((*c.prev)[:0], c.nb[:c.last]...)
	}
	c.dirty = r
}

// len returns the number of candidates, reserve included.
func (c *candStore) len() int { return len(c.nb) }

// kth returns the current k-th smallest distance (+Inf with fewer than k
// candidates).
func (c *candStore) kth() float64 {
	if len(c.nb) < c.k {
		return math.Inf(1)
	}
	return c.nb[c.k-1].Dist
}

// contains reports whether obj is currently a candidate.
func (c *candStore) contains(obj roadnet.ObjectID) bool {
	_, ok := c.dist.Get(int32(obj))
	return ok
}

// lowerCover records that the owner's search is not complete at radius r.
func (c *candStore) lowerCover(r float64) {
	if r < c.cover {
		c.cover = r
	}
}

// add offers object obj at distance d on edge e, keeping the minimum
// distance per object. It reports whether the store changed.
func (c *candStore) add(obj roadnet.ObjectID, d float64, e graph.EdgeID) bool {
	cur, ok := c.lookup(obj)
	if !ok {
		return c.insert(obj, d, e)
	}
	if d >= cur {
		return false
	}
	c.move(c.rank(cur, obj), d, e)
	return true
}

// setExact overwrites the key of obj regardless of the previous distance
// (used when stale keys are re-derived from fresh positions). obj need
// not be present yet.
func (c *candStore) setExact(obj roadnet.ObjectID, d float64, e graph.EdgeID) {
	if cur, ok := c.lookup(obj); ok {
		c.move(c.rank(cur, obj), d, e)
	} else {
		c.insert(obj, d, e)
	}
}

// remove deletes obj from the store if present.
func (c *candStore) remove(obj roadnet.ObjectID) {
	if cur, ok := c.lookup(obj); ok {
		c.removeAt(c.rank(cur, obj))
	}
}

// before reports whether key a sorts before (d, obj): by distance, ties by
// object id.
func before(a Neighbor, d float64, obj roadnet.ObjectID) bool {
	return a.Dist < d || (a.Dist == d && a.Obj < obj)
}

// rank returns the first rank whose key does not sort before (d, obj): the
// rank of obj's key when d is its distance, its insertion point otherwise.
func (c *candStore) rank(d float64, obj roadnet.ObjectID) int {
	lo, hi := 0, len(c.nb)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(c.nb[mid], d, obj) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert places a new object by binary insertion. A store at capacity keeps
// the reserveCap smallest: whichever key falls off the end lowers cover.
// The arrays grow fourfold from 16, and straight to reserveCap(k), the most
// they can hold, once that is at most twice the size: each growth
// allocates both, so a store at Table 2's k = 50 grows once past 16. A
// store is not sized up front, since k may be huge.
func (c *candStore) insert(obj roadnet.ObjectID, d float64, e graph.EdgeID) bool {
	n := len(c.nb)
	if n == reserveCap(c.k) {
		last := c.nb[n-1]
		if before(last, d, obj) {
			c.lowerCover(d)
			return false
		}
		c.lowerCover(last.Dist)
		c.dist.Delete(int32(last.Obj))
		n--
		c.nb, c.edges = c.nb[:n], c.edges[:n]
	} else if n == cap(c.nb) {
		size := max(4*n, 16)
		if limit := reserveCap(c.k); size >= limit/2 {
			size = limit
		}
		c.nb = append(make([]Neighbor, 0, size), c.nb...)
		c.edges = append(make([]graph.EdgeID, 0, size), c.edges...)
	}
	r := c.rank(d, obj)
	c.written(r)
	c.nb, c.edges = c.nb[:n+1], c.edges[:n+1]
	copy(c.nb[r+1:], c.nb[r:])
	copy(c.edges[r+1:], c.edges[r:])
	c.nb[r], c.edges[r] = Neighbor{Obj: obj, Dist: d}, e
	c.dist.Put(int32(obj), d)
	return true
}

// move re-ranks the key at rank r to distance d on edge e.
func (c *candStore) move(r int, d float64, e graph.EdgeID) {
	key := c.nb[r]
	if d == key.Dist {
		c.edges[r] = e
		return
	}
	to := c.rank(d, key.Obj)
	if to > r {
		to-- // the insertion point counted the key itself
		c.written(r)
		copy(c.nb[r:to], c.nb[r+1:to+1])
		copy(c.edges[r:to], c.edges[r+1:to+1])
	} else {
		c.written(to)
		copy(c.nb[to+1:r+1], c.nb[to:r])
		copy(c.edges[to+1:r+1], c.edges[to:r])
	}
	key.Dist = d
	c.nb[to], c.edges[to] = key, e
	c.dist.Put(int32(key.Obj), d)
}

func (c *candStore) removeAt(r int) {
	c.written(r)
	c.dist.Delete(int32(c.nb[r].Obj))
	c.nb = append(c.nb[:r], c.nb[r+1:]...)
	c.edges = append(c.edges[:r], c.edges[r+1:]...)
}

// rekey exposes the keys and their edges to a bulk re-derivation, which may
// overwrite every Dist (+Inf to evict) and edge and must call restore
// afterwards.
func (c *candStore) rekey() ([]Neighbor, []graph.EdgeID) {
	c.written(0)
	return c.nb, c.edges
}

// restore re-establishes order and membership after the distances were
// overwritten in place: an insertion sort (the keys were ordered before and
// mostly still are), then +Inf keys are dropped off the end and the table
// is rebuilt.
func (c *candStore) restore() {
	for i := 1; i < len(c.nb); i++ {
		key, e := c.nb[i], c.edges[i]
		j := i
		for ; j > 0 && !before(c.nb[j-1], key.Dist, key.Obj); j-- {
			c.nb[j], c.edges[j] = c.nb[j-1], c.edges[j-1]
		}
		c.nb[j], c.edges[j] = key, e
	}
	n := len(c.nb)
	for n > 0 && math.IsInf(c.nb[n-1].Dist, 1) {
		n--
	}
	c.nb, c.edges = c.nb[:n], c.edges[:n]
	c.dist.Clear()
	for _, key := range c.nb {
		c.dist.Put(int32(key.Obj), key.Dist)
	}
}

// trim drops what the reserve cannot vouch for: every key beyond the k-th
// at or beyond cover. The result is not written.
func (c *candStore) trim() {
	n := len(c.nb)
	for n > c.k && c.nb[n-1].Dist >= c.cover {
		n--
		c.dist.Delete(int32(c.nb[n].Obj))
	}
	c.nb, c.edges = c.nb[:n], c.edges[:n]
}

// finalize trims the reserve to cover and returns the best k (ties broken by
// object id for determinism): the prefix of the store's keys, capped so
// that an append cannot reach the reserve, and valid until the store is next
// written. changed reports whether the result differs from what the
// previous finalize returned: exactly while the owner tracks (prev), and
// otherwise whenever a rank of it was written.
func (c *candStore) finalize() (result []Neighbor, changed bool) {
	c.trim()
	n := min(c.k, len(c.nb))
	result = c.nb[:n:n]
	switch {
	case n != c.last:
		changed = true
	case c.dirty >= n:
	case c.prev == nil:
		changed = true
	default:
		changed = !slices.Equal((*c.prev)[c.dirty:], result[c.dirty:])
	}
	c.last, c.dirty = n, c.k
	return result, changed
}

// lookup returns obj's current distance and whether it is a candidate.
func (c *candStore) lookup(obj roadnet.ObjectID) (float64, bool) { return c.dist.Get(int32(obj)) }
