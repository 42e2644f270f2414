// Package pqueue implements an indexed binary min-heap with decrease-key,
// the priority queue underlying every Dijkstra-style network expansion in
// this repository. Items are identified by a key so that a pending item's
// priority can be lowered in O(log n) when a shorter path to it is
// discovered.
package pqueue

// Dense is an indexed binary min-heap over a dense int32 key universe
// [0, n): the key→slot index is a flat []int32 validated by an epoch stamp
// instead of a map, so Push/PopMin never hash and Reset is O(1) — the epoch
// is bumped and every stale slot entry becomes invalid at once. Keys are
// dense graph.NodeIDs everywhere it is used.
//
// The zero value is not usable; call NewDense. Dense is not safe for
// concurrent use — the engines own one per worker arena.
type Dense struct {
	keys []int32
	prio []float64

	slot  []int32  // key -> position in keys/prio; valid iff stamp[key] == epoch
	stamp []uint32 // epoch at which slot[key] was last written
	epoch uint32
}

// NewDense returns an empty queue for keys in [0, universe).
func NewDense(universe int) *Dense {
	return &Dense{
		slot:  make([]int32, universe),
		stamp: make([]uint32, universe),
		epoch: 1,
	}
}

// Grow extends the key universe to at least universe keys, preserving the
// queued items.
func (q *Dense) Grow(universe int) {
	if universe <= len(q.slot) {
		return
	}
	slot := make([]int32, universe)
	stamp := make([]uint32, universe)
	copy(slot, q.slot)
	copy(stamp, q.stamp)
	q.slot, q.stamp = slot, stamp
}

// Universe returns the current key-universe size.
func (q *Dense) Universe() int { return len(q.slot) }

// Len returns the number of queued items.
func (q *Dense) Len() int { return len(q.keys) }

// Reset empties the queue in O(1), retaining allocated capacity.
func (q *Dense) Reset() {
	q.keys = q.keys[:0]
	q.prio = q.prio[:0]
	q.epoch++
	if q.epoch == 0 { // stamp wrap-around: invalidate everything explicitly
		clear(q.stamp)
		q.epoch = 1
	}
}

// Contains reports whether key is currently queued.
func (q *Dense) Contains(key int32) bool {
	return q.stamp[key] == q.epoch
}

// Priority returns the priority of key and whether it is queued.
func (q *Dense) Priority(key int32) (float64, bool) {
	if q.stamp[key] != q.epoch {
		return 0, false
	}
	return q.prio[q.slot[key]], true
}

// Push inserts key with the given priority. If key is already queued, its
// priority is lowered to p when p is smaller (decrease-key); a larger p is
// ignored. It reports whether the queue was modified.
func (q *Dense) Push(key int32, p float64) bool {
	if q.stamp[key] == q.epoch {
		i := int(q.slot[key])
		if p < q.prio[i] {
			q.prio[i] = p
			q.up(i)
			return true
		}
		return false
	}
	q.keys = append(q.keys, key)
	q.prio = append(q.prio, p)
	i := len(q.keys) - 1
	q.slot[key] = int32(i)
	q.stamp[key] = q.epoch
	q.up(i)
	return true
}

// PopMin removes and returns the minimum item.
// ok is false when the queue is empty.
func (q *Dense) PopMin() (key int32, p float64, ok bool) {
	if len(q.keys) == 0 {
		return 0, 0, false
	}
	key, p = q.keys[0], q.prio[0]
	last := len(q.keys) - 1
	q.swap(0, last)
	q.keys = q.keys[:last]
	q.prio = q.prio[:last]
	q.stamp[key] = q.epoch - 1 // invalidate; epoch-1 != epoch always
	if last > 0 {
		q.down(0)
	}
	return key, p, true
}

func (q *Dense) swap(i, j int) {
	q.keys[i], q.keys[j] = q.keys[j], q.keys[i]
	q.prio[i], q.prio[j] = q.prio[j], q.prio[i]
	q.slot[q.keys[i]] = int32(i)
	q.slot[q.keys[j]] = int32(j)
}

func (q *Dense) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.prio[parent] <= q.prio[i] {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Dense) down(i int) {
	n := len(q.keys)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.prio[l] < q.prio[small] {
			small = l
		}
		if r < n && q.prio[r] < q.prio[small] {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}
