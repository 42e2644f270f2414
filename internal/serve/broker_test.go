package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"roadknn"
	"roadknn/internal/core"
)

// brokerModel is the reference the broker is checked against: it keeps
// every snapshot ever published, and decides from them alone whether a
// cursor can advance incrementally.
type brokerModel struct {
	ring  uint64
	snaps map[uint64]*roadknn.Snapshot // by epoch, as published (with or without a delta)
	base  uint64                       // epoch of the last reset or gap: publication is contiguous from here
	hi    uint64
}

// restart is a reset, or a publish whose epoch does not follow hi.
func (m *brokerModel) restart(snap *roadknn.Snapshot) {
	m.base, m.hi = snap.Epoch(), snap.Epoch()
	m.snaps[m.hi] = snap
}

func (m *brokerModel) publish(snap *roadknn.Snapshot) {
	switch snap.Epoch() {
	case m.hi:
	case m.hi + 1:
		m.hi++
		m.snaps[m.hi] = snap
	default:
		m.restart(snap)
	}
}

// lo is the oldest epoch a cursor may stand at and still be served a chain,
// as far as residency goes: publication has been contiguous since, and the
// cursor lags by no more than the ring.
func (m *brokerModel) lo() uint64 {
	if m.hi-m.base > m.ring {
		return m.hi - m.ring
	}
	return m.base
}

// chain reports whether since+1..hi is contiguous, resident and
// delta-bearing.
func (m *brokerModel) chain(since uint64) bool {
	if since >= m.hi || since < m.lo() {
		return false
	}
	for e := since + 1; e <= m.hi; e++ {
		if m.snaps[e].Delta() == nil {
			return false
		}
	}
	return true
}

// TestBrokerMatchesModel drives the broker through a seeded interleaving of
// publish (contiguous, duplicate, gapped), reset and delta-less epochs (an
// engine without Options{Deltas}, the post-recovery restore), and after each
// asks collect for every cursor from two below the ring to one past the
// newest epoch. A chain is handed out iff the model — which keeps every
// snapshot — says the run since+1..hi was published contiguously, lies within
// DeltaRing and carries a delta at every epoch; applying it to the model's
// snapshot at since reproduces every epoch up to head; otherwise the answer is a resync from
// head. The counters and the ring's reported weight follow.
func TestBrokerMatchesModel(t *testing.T) {
	for _, ring := range []int{1, 2, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("ring=%d/seed=%d", ring, seed), func(t *testing.T) {
				testBrokerAgainstModel(t, ring, seed)
			})
		}
	}
}

func testBrokerAgainstModel(t *testing.T, ring int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	net := roadknn.GenerateNetwork(80, seed)
	const nObj = 30
	for o := 0; o < nObj; o++ {
		net.AddObject(roadknn.ObjectID(o), net.UniformPosition(rng))
	}
	eng := roadknn.NewIMAWith(net, roadknn.Options{Workers: 1, Deltas: true})
	defer eng.Close()
	live := map[roadknn.QueryID]bool{}
	// next takes the engine one epoch further: a step that moves objects, a
	// registration or a termination, so deltas come in all three shapes.
	next := func() *roadknn.Snapshot {
		const nQry = 12
		id := roadknn.QueryID(rng.Intn(nQry))
		switch r := rng.Intn(10); {
		case (r == 0 && len(live) < nQry) || len(live) == 0:
			for live[id] {
				id = (id + 1) % nQry
			}
			live[id] = true
			eng.Register(id, net.UniformPosition(rng), 1+rng.Intn(4))
		case r == 1:
			for !live[id] {
				id = (id + 1) % nQry
			}
			delete(live, id)
			eng.Unregister(id)
		default:
			var u roadknn.Updates
			for _, o := range rng.Perm(nObj)[:rng.Intn(6)] {
				id := roadknn.ObjectID(o)
				old, _ := net.ObjectPos(id)
				u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, Old: old, New: net.UniformPosition(rng)})
			}
			eng.Step(u)
		}
		return eng.Snapshot()
	}
	// stripped is snap as an engine without Options{Deltas} (or a recovery
	// restore) would have published it: same epoch and rows, no delta.
	stripped := func(snap *roadknn.Snapshot) *roadknn.Snapshot {
		bare, err := core.UnmarshalSnapshot(snap.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		return bare
	}

	first := next()
	b := newBroker(ring, first)
	m := &brokerModel{ring: uint64(ring), snaps: map[uint64]*roadknn.Snapshot{}}
	m.restart(first)
	var deltasOut, resyncs int64

	// Disruptions come about once in ring+3 operations, so that runs of
	// contiguous delta-bearing epochs both shorter and longer than the ring
	// occur, and the ring wraps while full.
	for i := 0; i < 400+20*ring; i++ {
		label := ""
		switch r := rng.Intn(5 * (ring + 3)); {
		case r == 0:
			label = "duplicate publish"
			b.publish(m.snaps[m.hi])
			m.publish(m.snaps[m.hi])
		case r == 1:
			label = "gapped publish"
			next() // an epoch the broker never sees
			snap := next()
			b.publish(snap)
			m.publish(snap)
		case r == 2:
			label = "reset"
			snap := stripped(next())
			b.reset(snap)
			m.restart(snap)
		case r <= 4:
			label = "delta-less publish"
			snap := stripped(next())
			b.publish(snap)
			m.publish(snap)
		default:
			label = "publish"
			snap := next()
			b.publish(snap)
			m.publish(snap)
		}
		label = fmt.Sprintf("op %d (%s, epochs %d..%d)", i, label, m.lo(), m.hi)

		if got := b.newest(); got != m.snaps[m.hi] {
			t.Fatalf("%s: newest is epoch %d, want the snapshot published at %d", label, got.Epoch(), m.hi)
		}
		// The cursors that get a chain are the newest ones, so every chain is
		// the tail of the oldest such cursor's — which is folded in full,
		// from the model's snapshot at that cursor through every published
		// epoch to head.
		var oldest []*roadknn.Delta
		for since := m.lo() - min(m.lo(), 2); since <= m.hi+1; since++ {
			chain, head, wait := b.collect(since)
			if head != m.snaps[m.hi] {
				t.Fatalf("%s: collect(%d) returned head at epoch %d", label, since, head.Epoch())
			}
			if since >= m.hi {
				if chain != nil || wait == nil {
					t.Fatalf("%s: collect(%d) at or past the newest epoch: chain %v, wait %v", label, since, chain, wait)
				}
				continue
			}
			if wait != nil {
				t.Fatalf("%s: collect(%d) waits though epoch %d is published", label, since, m.hi)
			}
			if !m.chain(since) {
				if chain != nil {
					t.Fatalf("%s: collect(%d) handed out a chain of %d; the model says resync", label, since, len(chain))
				}
				resyncs++
				continue
			}
			if uint64(len(chain)) != m.hi-since {
				t.Fatalf("%s: collect(%d) returned a chain of %d, want %d", label, since, len(chain), m.hi-since)
			}
			deltasOut += int64(len(chain))
			if oldest != nil {
				if !slices.Equal(chain, oldest[len(oldest)-len(chain):]) {
					t.Fatalf("%s: collect(%d)'s chain is not the tail of collect(%d)'s", label, since, m.hi-uint64(len(oldest)))
				}
				continue
			}
			oldest = chain
			cur := m.snaps[since]
			for _, d := range chain {
				var err error
				if cur, err = d.Apply(cur); err != nil {
					t.Fatalf("%s: collect(%d): %v", label, since, err)
				}
				if want := m.snaps[d.Epoch()]; cur.Epoch() != want.Epoch() || cur.CRC32() != want.CRC32() {
					t.Fatalf("%s: collect(%d)'s chain folds to epoch %d crc %08x, published was epoch %d crc %08x",
						label, since, cur.Epoch(), cur.CRC32(), want.Epoch(), want.CRC32())
				}
			}
		}
		wantEpochs, wantBytes := m.hi-m.lo(), 0
		for e := m.lo() + 1; e <= m.hi; e++ {
			if d := m.snaps[e].Delta(); d != nil {
				wantBytes += len(d.AppendBinary(nil))
			}
		}
		if epochs, bytes := b.weight(); epochs != wantEpochs || bytes != wantBytes {
			t.Fatalf("%s: ring weighs %d epochs, %d bytes; want %d, %d", label, epochs, bytes, wantEpochs, wantBytes)
		}
		if got := b.deltasOut.Load(); got != deltasOut {
			t.Fatalf("%s: deltas_out %d, want %d", label, got, deltasOut)
		}
		if got := b.resyncs.Load(); got != resyncs {
			t.Fatalf("%s: resyncs %d, want %d", label, got, resyncs)
		}
	}
}
