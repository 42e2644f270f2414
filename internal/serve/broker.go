package serve

import (
	"sync"
	"sync/atomic"

	"roadknn"
)

// broker is the one source every read endpoint answers from: it retains
// the last ringSize published snapshots (each carrying its per-epoch
// Delta, see core.Snapshot.Delta) and answers per-subscriber cursor
// advances. A subscriber at epoch E asks for everything after E and gets
// either
//
//   - the contiguous snapshot chain E+1..hi, whose deltas are the
//     churn-proportional bytes to send, or
//   - a resync: the newest full snapshot, when the cursor has fallen off
//     the ring (slow consumer), when an epoch in the chain carries no delta
//     (engine without Options{Deltas: true}, or the post-recovery restore),
//     or when publication itself jumped epochs (ring reset).
//
// The stepper publishes under stepMu and then wakes the waiters, so a
// released waiter always finds its epoch resident. Readers never block the
// stepper for longer than the ring-slot store.
type broker struct {
	mu     sync.Mutex
	ring   []*roadknn.Snapshot // ring[e % len] holds the snapshot at epoch e
	lo     uint64              // oldest resident epoch
	hi     uint64              // newest resident epoch
	notify chan struct{}       // closed and replaced by wake

	// counters for /v1/stats.
	deltasOut atomic.Int64 // chain epochs handed to subscribers
	resyncs   atomic.Int64 // cursor advances answered with a full snapshot
	evicted   atomic.Int64 // subscribers dropped: stalled send or chronic ring lag
}

// newBroker returns a broker holding snap as its only resident epoch.
func newBroker(ringSize int, snap *roadknn.Snapshot) *broker {
	b := &broker{ring: make([]*roadknn.Snapshot, max(ringSize, 1)), notify: make(chan struct{})}
	b.reset(snap)
	return b
}

// publish makes snap available to subscribers. Epochs must arrive in
// order; a gap restarts the ring at snap, forcing every parked cursor
// through a resync — correct, never silent divergence.
func (b *broker) publish(snap *roadknn.Snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := snap.Epoch()
	switch {
	case e == b.hi:
		return // duplicate publish of the current epoch: keep the ring
	case e != b.hi+1:
		clear(b.ring)
		b.lo = e
	case e-b.lo >= uint64(len(b.ring)):
		b.lo = e - uint64(len(b.ring)) + 1
	}
	b.ring[e%uint64(len(b.ring))] = snap
	b.hi = e
}

// reset makes snap the only resident epoch (used after WAL recovery and
// follower bootstrap, whose replayed epochs never reached subscribers).
func (b *broker) reset(snap *roadknn.Snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.ring)
	b.lo = snap.Epoch()
	b.hi = snap.Epoch()
	b.ring[b.lo%uint64(len(b.ring))] = snap
}

// wake releases everyone waiting for a new epoch.
func (b *broker) wake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	close(b.notify)
	b.notify = make(chan struct{})
}

// newest returns the newest published snapshot.
func (b *broker) newest() *roadknn.Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring[b.hi%uint64(len(b.ring))]
}

// collect advances a cursor at epoch since. head is always the newest
// published snapshot. When it is newer than since, chain is the contiguous
// run since+1..head (freshly allocated; the snapshots are immutable shared
// state), or nil when that run is not reconstructible and the subscriber
// must resync from head. When nothing newer exists yet, wait is the
// channel the next wake closes — taken under the same lock as the check,
// so a publish in between cannot be missed.
func (b *broker) collect(since uint64) (chain []*roadknn.Snapshot, head *roadknn.Snapshot, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	head = b.ring[b.hi%uint64(len(b.ring))]
	if b.hi <= since {
		return nil, head, b.notify
	}
	if since+1 >= b.lo {
		chain = make([]*roadknn.Snapshot, 0, b.hi-since)
		for e := since + 1; e <= b.hi; e++ {
			snap := b.ring[e%uint64(len(b.ring))]
			if snap == nil || snap.Epoch() != e || snap.Delta() == nil {
				chain = nil
				break
			}
			chain = append(chain, snap)
		}
	}
	if chain == nil {
		b.resyncs.Add(1)
	} else {
		b.deltasOut.Add(int64(len(chain)))
	}
	return chain, head, nil
}
