package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"roadknn"
	"roadknn/internal/core"
	"roadknn/internal/roadnet"
	"roadknn/internal/workload"
)

// brokerModel is the reference the broker is checked against: it keeps
// every snapshot ever published, and replays the ring's retention rule on
// their encodings at each publish: the newest epoch's delta is kept, older
// ones while the run's summed size is at most the new head's, and never more
// than ring epochs. What the rule drops stays dropped, even when a later,
// larger head would have room for it.
type brokerModel struct {
	ring  uint64
	snaps map[uint64]*roadknn.Snapshot // by epoch, as published (with or without a delta)
	lo    uint64                       // oldest epoch a cursor may stand at and still be served a chain
	hi    uint64

	// How often each bound cut the ring short of the run published since
	// the last restart.
	capCuts, byteCuts int
}

// restart is a reset, or a publish whose epoch does not follow hi.
func (m *brokerModel) restart(snap *roadknn.Snapshot) {
	m.lo, m.hi = snap.Epoch(), snap.Epoch()
	m.snaps[m.hi] = snap
}

// deltaLen is the encoded size of epoch e's delta, 0 when it has none.
func (m *brokerModel) deltaLen(e uint64) int {
	if d := m.snaps[e].Delta(); d != nil {
		return len(d.AppendBinary(nil))
	}
	return 0
}

func (m *brokerModel) publish(snap *roadknn.Snapshot) {
	switch snap.Epoch() {
	case m.hi:
		return
	case m.hi + 1:
	default:
		m.restart(snap)
		return
	}
	m.hi++
	m.snaps[m.hi] = snap
	// Walk back from the newest epoch, which is always kept: epochs
	// keep+1..hi are resident.
	limit, keep, sum := len(snap.AppendBinary(nil)), m.hi-1, m.deltaLen(m.hi)
	for keep > m.lo {
		if m.hi-keep+1 > m.ring {
			m.capCuts++
			break
		}
		if sum+m.deltaLen(keep) > limit {
			m.byteCuts++
			break
		}
		sum += m.deltaLen(keep)
		keep--
	}
	m.lo = keep
}

// chain reports whether since+1..hi is resident and delta-bearing.
func (m *brokerModel) chain(since uint64) bool {
	if since >= m.hi || since < m.lo {
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
// snapshot — says the run since+1..hi was published contiguously, is still
// resident under the ring's rule (newest epoch always, older ones while the
// run weighs at most head's encoding, at most ring epochs) and carries a
// delta at every epoch; applying it to the model's snapshot at since
// reproduces every epoch up to head; otherwise the answer is a resync from
// head. The counters and the ring's reported weight follow. Delta sizes are
// drawn at random, from quiet stretches of empty deltas to steps that move
// most objects, so that in every run each bound the ring size allows cuts
// the ring short.
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
	const nObj, nQry = 60, 40
	for o := 0; o < nObj; o++ {
		net.AddObject(roadknn.ObjectID(o), net.UniformPosition(rng))
	}
	eng := roadknn.NewIMAWith(net, roadknn.Options{Workers: 1, Deltas: true})
	defer eng.Close()
	live := map[roadknn.QueryID]bool{}
	register := func(id roadknn.QueryID) {
		for live[id] {
			id = (id + 1) % nQry
		}
		live[id] = true
		eng.Register(id, net.UniformPosition(rng), 1+rng.Intn(8))
	}
	for len(live) < nQry*3/4 {
		register(roadknn.QueryID(rng.Intn(nQry)))
	}
	// next takes the engine one epoch further. In a quiet stretch that is an
	// empty step, whose delta lists no query (the smallest delta there is,
	// so a ring of them is cut by the epoch bound, or by bytes exactly at
	// head's size); otherwise a registration, a termination, or a step that
	// moves anywhere from none to all of the objects, so deltas come in all
	// three shapes and sizes from nothing to more than head.
	quiet := false
	next := func() *roadknn.Snapshot {
		odds := ring + 3 // a stretch lasts ring+3 epochs on average, a quiet one twice that
		if quiet {
			odds *= 2
		}
		if rng.Intn(odds) == 0 {
			quiet = !quiet
		}
		id := roadknn.QueryID(rng.Intn(nQry))
		switch r := rng.Intn(10); {
		case quiet:
			eng.Step(roadknn.Updates{})
		case (r == 0 && len(live) < nQry) || len(live) == 0:
			register(id)
		case r == 1:
			for !live[id] {
				id = (id + 1) % nQry
			}
			delete(live, id)
			eng.Unregister(id)
		default:
			var u roadknn.Updates
			for _, o := range rng.Perm(nObj)[:rng.Intn(1+rng.Intn(nObj))] {
				id := roadknn.ObjectID(o)
				u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: net.UniformPosition(rng)})
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
		label = fmt.Sprintf("op %d (%s, epochs %d..%d)", i, label, m.lo, m.hi)

		if got := b.newest(); got != m.snaps[m.hi] {
			t.Fatalf("%s: newest is epoch %d, want the snapshot published at %d", label, got.Epoch(), m.hi)
		}
		// The cursors that get a chain are the newest ones, so every chain is
		// the tail of the oldest such cursor's — which is folded in full,
		// from the model's snapshot at that cursor through every published
		// epoch to head.
		var oldest []*roadknn.Delta
		for since := m.lo - min(m.lo, 2); since <= m.hi+1; since++ {
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
		wantEpochs, wantBytes := m.hi-m.lo, 0
		for e := m.lo + 1; e <= m.hi; e++ {
			if d := m.snaps[e].Delta(); d != nil {
				wantBytes += len(d.AppendBinary(nil))
			}
		}
		if _, epochs, bytes := b.weight(); epochs != wantEpochs || bytes != wantBytes {
			t.Fatalf("%s: ring weighs %d epochs, %d bytes; want %d, %d", label, epochs, bytes, wantEpochs, wantBytes)
		}
		if got := b.deltasOut.Load(); got != deltasOut {
			t.Fatalf("%s: deltas_out %d, want %d", label, got, deltasOut)
		}
		if got := b.resyncs.Load(); got != resyncs {
			t.Fatalf("%s: resyncs %d, want %d", label, got, resyncs)
		}
	}
	// A ring of one slot holds only the newest epoch, which no byte count
	// evicts; every other ring must have met both bounds.
	t.Logf("ring cut short by its %d slots %d times, by head's bytes %d times", ring, m.capCuts, m.byteCuts)
	if m.capCuts == 0 || (ring > 1 && m.byteCuts == 0) {
		t.Fatalf("a bound never cut the ring: %d times by its %d slots, %d by head's bytes", m.capCuts, ring, m.byteCuts)
	}
}

// TestBrokerRingWithinHeadBytes: under Table-2 churn (workload.Default at
// scale 0.02: 200 edges, 2,000 objects and 100 queries at k = 50, a tenth of
// the objects and queries moving and 4% of the edges reweighted per tick),
// after every publish the ring holds the newest epoch alone or weighs at
// most head's encoding, and so does every chain collect hands out: a resync
// is never heavier than the chain it replaces. At this churn a delta is a
// large fraction of a snapshot, so the ring must stay far below its slots
// and still hold more than one epoch at times.
func TestBrokerRingWithinHeadBytes(t *testing.T) {
	r, _ := workload.NewRunner(workload.Default().Scale(0.02), func(net *roadnet.Network) core.Engine {
		return core.NewIMAWith(net, core.Options{Workers: 1, Serving: true, Deltas: true})
	})
	eng := r.Engine()
	defer eng.Close()
	b := newBroker(deltaRing, eng.Snapshot())
	var most uint64
	for tick := 1; tick <= 40; tick++ {
		eng.Step(r.GenerateStep())
		head := eng.Snapshot()
		b.publish(head)
		_, epochs, bytes := b.weight()
		if epochs != 1 && bytes > head.EncodedLen() {
			t.Fatalf("tick %d: the ring holds %d epochs of %d bytes, head weighs %d", tick, epochs, bytes, head.EncodedLen())
		}
		for since := head.Epoch() - epochs; since < head.Epoch(); since++ {
			chain, _, _ := b.collect(since)
			sum := 0
			for _, d := range chain {
				sum += d.EncodedLen()
			}
			if chain == nil || (len(chain) > 1 && sum > head.EncodedLen()) {
				t.Fatalf("tick %d: collect(%d) handed out %d deltas of %d bytes, head weighs %d", tick, since, len(chain), sum, head.EncodedLen())
			}
		}
		most = max(most, epochs)
	}
	if most < 2 || most >= deltaRing {
		t.Fatalf("the ring held at most %d epochs over 40 ticks of Table-2 churn, want 2..%d", most, deltaRing-1)
	}
}
