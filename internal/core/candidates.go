package core

import (
	"cmp"
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
// recompute from scratch every time (grouped evaluation, OVH) ignore it,
// and grouped evaluation keeps no reserve either: its store, reset by
// resetTop, holds at most k keys, and is fed by offer and merge.
//
// Membership is an idtable.Map from object to a 32-bit code of its key's
// distance (distCode: an 8-byte slot, not a second copy of the float64 in
// nb; the tree index's table: no allocation at steady state, reset keeps
// its arrays), from which its rank follows by binary search (find) — ranks
// shift under every insertion, distances do not. The zero value is usable
// after reset.
type candStore struct {
	k     int
	limit int            // the most keys held: reserveCap(k), or k after resetTop
	nb    []Neighbor     // ascending by (Dist, Obj); the first k are the result
	edges []graph.EdgeID // edges[i] is where nb[i].Obj was last offered
	cover float64

	dist idtable.Map[uint32] // object -> distCode of its key's distance

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
	c.resetTop(k)
	c.limit = reserveCap(k)
}

// resetTop is reset for an owner that ignores cover: the store holds at
// most k keys, the result and nothing beyond it.
func (c *candStore) resetTop(k int) {
	c.written(0)
	c.k, c.limit = k, k
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
// distance per object. It reports whether the store changed. The codes
// decide unless they tie on an inexact one: a larger code is a larger
// distance, and an equal exact code the same distance.
func (c *candStore) add(obj roadnet.ObjectID, d float64, e graph.EdgeID) bool {
	cur, ok := c.lookup(obj)
	if !ok {
		return c.insert(obj, d, e)
	}
	if cd := distCode(d); cd > cur || cd == cur && codeExact(cur) {
		return false
	}
	r := c.find(obj, cur)
	if d >= c.nb[r].Dist {
		return false
	}
	c.move(r, d, e)
	return true
}

// settle re-derives obj, whose key's code is cd (lookup): the key moves to
// distance d on edge e, or leaves the store at d = +Inf.
func (c *candStore) settle(obj roadnet.ObjectID, cd uint32, d float64, e graph.EdgeID) {
	if r := c.find(obj, cd); !math.IsInf(d, 1) {
		c.move(r, d, e)
	} else {
		c.removeAt(r)
	}
}

// enter inserts obj, which must be absent, at distance d on edge e, unless
// d is +Inf.
func (c *candStore) enter(obj roadnet.ObjectID, d float64, e graph.EdgeID) {
	if !math.IsInf(d, 1) {
		c.insert(obj, d, e)
	}
}

// distCode is the membership table's 32-bit code of distance d: monotone
// (d < d' implies distCode(d) <= distCode(d')), and exact — odd and below
// 2^31, decoding to d itself — for every whole number n of quanta below
// 2^30 (1024 cost units), which is every distance the engine computes on
// the paper's networks: 2n+1. A distance between n and n+1 quanta codes as
// 2n+2, one of 1024 or more as 2^31+1 plus the growth of the top 32 bits of
// its float64 over 1024's, and every negative distance as 0. NaN is no
// distance.
func distCode(d float64) uint32 {
	switch q := d / graph.Quantum; {
	case q < 0:
		return 0
	case q < 1<<30:
		n := uint32(q)
		if float64(n) == q {
			return 2*n + 1
		}
		return 2*n + 2
	default:
		return 1<<31 + 1 + uint32(math.Float64bits(d)>>32-math.Float64bits(1024)>>32)
	}
}

// codeExact reports whether code cd names one distance: codeDist(cd).
func codeExact(cd uint32) bool { return cd&1 == 1 && cd < 1<<31 }

// codeDist is the distance an exact code names.
func codeDist(cd uint32) float64 { return float64(cd>>1) * graph.Quantum }

// find returns the rank of obj's key, whose code is cd. An exact code names
// the key's distance, so one binary search finds the key; otherwise the
// search finds the first key with that code, and the run of equal codes is
// scanned for obj.
func (c *candStore) find(obj roadnet.ObjectID, cd uint32) int {
	if codeExact(cd) {
		return c.rank(codeDist(cd), obj)
	}
	r, _ := slices.BinarySearchFunc(c.nb, cd, func(key Neighbor, cd uint32) int { return cmp.Compare(distCode(key.Dist), cd) })
	for c.nb[r].Obj != obj {
		r++
	}
	return r
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
// the limit smallest: whichever key falls off the end lowers cover.
// The arrays grow fourfold from 16, and straight to the limit, the most
// they can hold, once that is at most twice the size: each growth
// allocates both, so a store at Table 2's k = 50 grows once past 16. A
// store is not sized up front, since k may be huge.
func (c *candStore) insert(obj roadnet.ObjectID, d float64, e graph.EdgeID) bool {
	n := len(c.nb)
	if n == c.limit {
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
		if size >= c.limit/2 {
			size = c.limit
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
	c.dist.Put(int32(obj), distCode(d))
	return true
}

// offer is add for a store reset by resetTop, whose owner ignores cover.
// An offer at capacity that sorts after the k-th returns before the
// membership probe: a present object's key sorts at or before the k-th, so
// the offer could not improve it. fresh skips the probe altogether: the
// caller knows obj is absent.
func (c *candStore) offer(obj roadnet.ObjectID, d float64, e graph.EdgeID, fresh bool) {
	if n := len(c.nb); n == c.limit && before(c.nb[n-1], d, obj) {
		return
	}
	if fresh {
		c.insert(obj, d, e)
	} else {
		c.add(obj, d, e)
	}
}

// keyBuf is a spare pair of key arrays for merge to write into.
type keyBuf struct {
	nb    []Neighbor
	edges []graph.EdgeID
}

// merge folds run into a store reset by resetTop, every entry offered on
// edge e at its distance plus d. run holds distinct objects ascending by
// (Dist, Obj), like a monitor's result; costs are whole quanta, so adding d
// keeps that order, and the fold is one linear merge of two ascending runs,
// the keys and the offset run, written into spare's arrays, swapped in
// afterwards, and stopped at the k-th key. An object in both keeps its
// smaller key. Each run entry the merge reaches costs one membership probe,
// which also enters an absent object (GetOrPut); membership is otherwise
// written only for a key that moves or leaves.
//
// It returns how many run entries lie within the new k-th distance: the
// entries that offering the run one at a time, stopping at the first beyond
// kth(), would read. That walk reads exactly these, because kth() only
// falls as it goes and never below the distance of an entry already read.
func (c *candStore) merge(run []Neighbor, d float64, e graph.EdgeID, spare *keyBuf) (read int) {
	if len(run) == 0 {
		return 0
	}
	n := len(c.nb)
	out, outEdges := spare.nb[:0], spare.edges[:0]
	if need := min(c.limit, n+len(run)); cap(out) < need || cap(outEdges) < need {
		out, outEdges = make([]Neighbor, 0, need), make([]graph.EdgeID, 0, need)
	}
	// The keys before the run's first entry stay as they are.
	i := c.rank(d+run[0].Dist, run[0].Obj)
	out, outEdges = append(out, c.nb[:i]...), append(outEdges, c.edges[:i]...)
	j := 0
merging:
	for ; j < len(run); j++ {
		key := Neighbor{Obj: run[j].Obj, Dist: d + run[j].Dist}
		for ; i < n && before(c.nb[i], key.Dist, key.Obj); i++ {
			if len(out) == c.limit {
				break merging
			}
			out, outEdges = append(out, c.nb[i]), append(outEdges, c.edges[i])
		}
		if len(out) == c.limit {
			break
		}
		cd := distCode(key.Dist)
		if cur, ok := c.dist.GetOrPut(int32(key.Obj), cd); ok {
			// Present: its key sorts at or after rank i, past every key
			// merged so far, so an improvement moves it to rank i, to be
			// merged next.
			if cd < cur || cd == cur && !codeExact(cur) {
				if r := c.find(key.Obj, cur); key.Dist < c.nb[r].Dist {
					c.move(r, key.Dist, e)
				}
			}
			continue
		}
		out, outEdges = append(out, key), append(outEdges, e)
	}
	// The keys after the run's last entry, up to the k-th; the rest leave.
	m := i + min(n-i, c.limit-len(out))
	out, outEdges = append(out, c.nb[i:m]...), append(outEdges, c.edges[i:m]...)
	for _, key := range c.nb[m:] {
		c.dist.Delete(int32(key.Obj))
	}
	c.written(0)
	spare.nb, spare.edges = c.nb[:0], c.edges[:0]
	c.nb, c.edges = out, outEdges
	// The run entries merged, and those after them that tie the k-th.
	kth := c.kth()
	for j < len(run) && d+run[j].Dist <= kth {
		j++
	}
	return j
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
	c.dist.Put(int32(key.Obj), distCode(d))
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
		c.dist.Put(int32(key.Obj), distCode(key.Dist))
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

// lookup returns the code of obj's current distance (distCode) and whether
// it is a candidate.
func (c *candStore) lookup(obj roadnet.ObjectID) (uint32, bool) { return c.dist.Get(int32(obj)) }
