package core

import (
	"roadknn/internal/graph"
	"roadknn/internal/pqueue"
)

// scratch is a per-worker arena of expansion-state buffers, the transient
// counterpart of the monitors' persistent trees. Every structure in it is
// either a dense per-node array validated by an epoch stamp (reset in O(1)
// by bumping the epoch) or a reusable slice truncated in place, so a whole
// timestamp of expansions, prunes and re-evaluations performs no heap
// allocation at steady state.
//
// Ownership: exactly one goroutine may use a scratch at a time. The serial
// pipelines use the owning set's arena 0; the parallel shard stages hand
// arena w to worker w (see runShards), so concurrently processed monitors
// never share one. Nothing in a scratch survives the call it is passed
// into — monitors must not retain pointers into it.
type scratch struct {
	// heap is the Dijkstra frontier of the running expansion.
	heap *pqueue.Dense

	// tentParent/tentEdge carry the would-be parent of nodes currently on
	// the heap. They are written on every successful heap push and read
	// only when the node pops, so no validity stamp is needed: a pop in
	// this expansion always reads a value written in this expansion.
	tentParent []graph.NodeID
	tentEdge   []graph.EdgeID

	// sub marks the nodes of the subtree computed by monitor.computeSubtree
	// (stamped: sub[n] == subEpoch means n is in the subtree).
	sub      []uint32
	subEpoch uint32

	// memo is the tri-state path-classification cache of computeSubtree
	// (unknown / in-subtree / not-in-subtree).
	memoStamp []uint32
	memoVal   []bool
	memoEpoch uint32

	// stack is the parent-chain walk buffer of computeSubtree.
	stack []graph.NodeID

	// aff is the influence-list rebuild's buffer (monitor.rebuildIL).
	aff []graph.EdgeID

	// cand is the candidate store of grouped-query evaluations, capped at
	// k, spare the key arrays its node-set merges write into and swap in,
	// and covered their sequence-walk buffer: an evaluation runs from
	// scratch, so the store is the worker's, reset by each, and the query
	// keeps only a copy of the result.
	cand    candStore
	spare   keyBuf
	covered []walkEdge

	// prev holds a change-tracking monitor's previous result while its
	// finalize rewrites the store it lives in (candStore.prev).
	prev []Neighbor

	// stats counts the work done with this arena (see StepStats): plain
	// ints, one writer, summed over the arenas on read.
	stats StepStats
}

func newScratch(numNodes int) *scratch {
	return &scratch{
		heap:       pqueue.NewDense(numNodes),
		tentParent: make([]graph.NodeID, numNodes),
		tentEdge:   make([]graph.EdgeID, numNodes),
		sub:        make([]uint32, numNodes),
		subEpoch:   1,
		memoStamp:  make([]uint32, numNodes),
		memoVal:    make([]bool, numNodes),
		memoEpoch:  1,
	}
}

// ensure grows the per-node arrays to cover numNodes nodes (graphs are
// static in steady state; this only fires if nodes were added after the
// arena was created).
func (sc *scratch) ensure(numNodes int) {
	if numNodes <= len(sc.tentParent) {
		return
	}
	sc.heap.Grow(numNodes)
	sc.tentParent = growTo(sc.tentParent, numNodes)
	sc.tentEdge = growTo(sc.tentEdge, numNodes)
	sc.sub = growTo(sc.sub, numNodes)
	sc.memoStamp = growTo(sc.memoStamp, numNodes)
	sc.memoVal = growTo(sc.memoVal, numNodes)
}

func growTo[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// beginSub starts a fresh subtree marking in O(1).
func (sc *scratch) beginSub() {
	sc.subEpoch++
	if sc.subEpoch == 0 {
		clear(sc.sub)
		sc.subEpoch = 1
	}
}

// markSub adds n to the current subtree set.
func (sc *scratch) markSub(n graph.NodeID) { sc.sub[n] = sc.subEpoch }

// inSub reports whether n was marked in the current subtree set.
func (sc *scratch) inSub(n graph.NodeID) bool { return sc.sub[n] == sc.subEpoch }

// beginMemo starts a fresh classification memo in O(1).
func (sc *scratch) beginMemo() {
	sc.memoEpoch++
	if sc.memoEpoch == 0 {
		clear(sc.memoStamp)
		sc.memoEpoch = 1
	}
}

// memoSet records n's classification.
func (sc *scratch) memoSet(n graph.NodeID, v bool) {
	sc.memoStamp[n] = sc.memoEpoch
	sc.memoVal[n] = v
}

// memoGet returns n's classification and whether it is known.
func (sc *scratch) memoGet(n graph.NodeID) (bool, bool) {
	if sc.memoStamp[n] != sc.memoEpoch {
		return false, false
	}
	return sc.memoVal[n], true
}

// arenaPool lazily grows a slice of per-worker arenas; index 0 is the
// calling goroutine's.
type arenaPool struct {
	arenas []*scratch
}

// get returns arena i, creating arenas as needed for a graph of numNodes
// nodes.
func (p *arenaPool) get(i, numNodes int) *scratch {
	for len(p.arenas) <= i {
		p.arenas = append(p.arenas, newScratch(numNodes))
	}
	sc := p.arenas[i]
	sc.ensure(numNodes)
	return sc
}

// stats sums the arenas' counters.
func (p *arenaPool) stats() StepStats {
	var sum StepStats
	for _, sc := range p.arenas {
		sum.add(sc.stats)
	}
	return sum
}
