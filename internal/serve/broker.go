package serve

import (
	"sync"
	"sync/atomic"

	"roadknn"
)

// deltaRing is the most epochs a server's delta ring holds, whatever they
// weigh.
const deltaRing = 64

// broker is the one source every read endpoint answers from. It retains
// what subscribers are sent and nothing else: head, the newest published
// snapshot (the engine's current one, so the only full result set the
// serving layer keeps alive), and a ring of the per-epoch Deltas (see
// core.Snapshot.Delta) of the last epochs — a resident epoch costs its
// delta, not a snapshot. The ring always holds the newest epoch's delta,
// and older ones only while the chain's encoded bytes are at most head's
// and it has a slot for them: a longer chain would be heavier than the
// resync that replaces it. A subscriber at epoch E asks for everything
// after E and gets either
//
//   - the contiguous delta chain E+1..hi, the churn-proportional bytes to
//     send, or
//   - a resync: head, when the cursor has fallen off the ring (its chain
//     would outweigh head, or span more epochs than the ring has slots),
//     when an epoch in the chain carries no delta (engine without
//     Options{Deltas: true}, or the post-recovery restore), or when
//     publication itself jumped epochs (ring reset).
//
// The stepper publishes under stepMu and then wakes the waiters, so a
// released waiter always finds its epoch resident. Readers never block the
// stepper for longer than the ring-slot store.
type broker struct {
	mu   sync.Mutex
	head *roadknn.Snapshot // the newest published snapshot, at epoch hi
	// ring[e % len] holds epoch e's delta for lo < e <= hi (nil when the
	// epoch was published without one): what takes a cursor from e-1 to e.
	// Every other slot is nil.
	ring      []*roadknn.Delta
	lo        uint64        // oldest epoch a cursor can still advance from
	hi        uint64        // newest published epoch
	ringBytes int           // sum of the resident deltas' EncodedLen
	notify    chan struct{} // closed and replaced by wake

	// counters for /v1/stats.
	deltasOut atomic.Int64 // chain epochs handed to subscribers
	resyncs   atomic.Int64 // cursor advances answered with a full snapshot
	evicted   atomic.Int64 // subscribers dropped: a stalled send
}

// newBroker returns a broker with ringSize delta slots, holding snap as its
// only resident epoch.
func newBroker(ringSize int, snap *roadknn.Snapshot) *broker {
	b := &broker{ring: make([]*roadknn.Delta, max(ringSize, 1)), notify: make(chan struct{})}
	b.reset(snap)
	return b
}

// publish makes snap available to subscribers: its delta joins the ring,
// snap replaces head, and the oldest deltas leave the ring until it fits
// its bounds. Epochs must arrive in order; a gap restarts the ring at snap,
// forcing every parked cursor through a resync — correct, never silent
// divergence.
func (b *broker) publish(snap *roadknn.Snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch e := snap.Epoch(); {
	case e == b.hi:
		return // duplicate publish of the current epoch: keep the ring
	case e != b.hi+1:
		b.restart(snap)
		return
	}
	n := uint64(len(b.ring))
	if b.hi++; b.hi-b.lo > n {
		b.drop() // epoch hi-n, whose slot the new delta takes
	}
	d := snap.Delta()
	if d != nil {
		b.ringBytes += d.EncodedLen()
	}
	b.ring[b.hi%n], b.head = d, snap
	for limit := snap.EncodedLen(); b.hi-b.lo > 1 && b.ringBytes > limit; {
		b.drop()
	}
}

// drop (mu held) takes the oldest resident epoch's delta off the ring.
func (b *broker) drop() {
	b.lo++
	slot := &b.ring[b.lo%uint64(len(b.ring))]
	if *slot != nil {
		b.ringBytes -= (*slot).EncodedLen()
		*slot = nil
	}
}

// reset makes snap the only resident epoch (used after WAL recovery and
// follower bootstrap, whose replayed epochs never reached subscribers).
func (b *broker) reset(snap *roadknn.Snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.restart(snap)
}

// restart (mu held) empties the ring and makes snap the head: no cursor
// below snap's epoch can advance incrementally.
func (b *broker) restart(snap *roadknn.Snapshot) {
	clear(b.ring)
	b.head, b.lo, b.hi, b.ringBytes = snap, snap.Epoch(), snap.Epoch(), 0
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
	return b.head
}

// weight returns head, how many epochs' deltas the ring holds and the sum
// of their encoded sizes — what retention costs, for /v1/stats — read
// together, so the ring is reported against the head that bounds it.
func (b *broker) weight() (head *roadknn.Snapshot, epochs uint64, bytes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.head, b.hi - b.lo, b.ringBytes
}

// collect advances a cursor at epoch since. head is always the newest
// published snapshot. When it is newer than since, chain is the contiguous
// run of deltas since+1..head (freshly allocated; the deltas are immutable
// shared state), or nil when that run is not reconstructible and the
// subscriber must resync from head. When nothing newer exists yet, wait is
// the channel the next wake closes — taken under the same lock as the
// check, so a publish in between cannot be missed.
func (b *broker) collect(since uint64) (chain []*roadknn.Delta, head *roadknn.Snapshot, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.hi <= since {
		return nil, b.head, b.notify
	}
	if since >= b.lo {
		chain = make([]*roadknn.Delta, 0, b.hi-since)
		for e := since + 1; e <= b.hi; e++ {
			d := b.ring[e%uint64(len(b.ring))]
			if d == nil || d.Epoch() != e {
				chain = nil
				break
			}
			chain = append(chain, d)
		}
	}
	if chain == nil {
		b.resyncs.Add(1)
	} else {
		b.deltasOut.Add(int64(len(chain)))
	}
	return chain, b.head, nil
}
