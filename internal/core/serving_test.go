package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/roadnet"
)

// TestSnapshotPublication checks the serving read path's basic contract:
// non-serving engines return nil snapshots; serving engines publish on
// Register/Step with strictly increasing epochs, Result serves the same
// values as the snapshot, and unchanged results are structurally shared
// between consecutive snapshots (copy-on-write, not copy-everything).
func TestSnapshotPublication(t *testing.T) {
	build := func() *roadnet.Network {
		return roadnet.NewNetwork(gen.SanFranciscoLike(60, 5))
	}

	plain := NewIMAWith(build(), Options{Workers: 1})
	defer plain.Close()
	if plain.Snapshot() != nil {
		t.Fatal("non-serving engine returned a snapshot")
	}

	eng := NewIMAWith(build(), Options{Workers: 1, Serving: true})
	defer eng.Close()
	snap0 := eng.Snapshot()
	if snap0 == nil || snap0.Len() != 0 {
		t.Fatalf("serving engine should start with an empty snapshot, got %v", snap0)
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		eng.Network().AddObject(roadnet.ObjectID(i), eng.Network().UniformPosition(rng))
	}
	for i := 0; i < 8; i++ {
		eng.Register(QueryID(i), eng.Network().UniformPosition(rng), 3)
	}
	snap1 := eng.Snapshot()
	if snap1.Len() != 8 {
		t.Fatalf("snapshot has %d queries, want 8", snap1.Len())
	}
	if snap1.Epoch() != snap0.Epoch()+8 {
		t.Fatalf("epoch %d after 8 registrations from %d", snap1.Epoch(), snap0.Epoch())
	}
	for i := 0; i < snap1.Len(); i++ {
		id, res := snap1.At(i)
		if !slices.Equal(res, eng.Result(id)) {
			t.Fatalf("query %d: snapshot and Result disagree", id)
		}
	}

	// A no-op step publishes a new epoch at the next timestamp with every
	// result slice shared from the previous snapshot.
	eng.Step(Updates{})
	snap2 := eng.Snapshot()
	if snap2.Epoch() != snap1.Epoch()+1 || snap2.Timestamp() != snap1.Timestamp()+1 {
		t.Fatalf("no-op step: epoch %d->%d stamp %d->%d",
			snap1.Epoch(), snap2.Epoch(), snap1.Timestamp(), snap2.Timestamp())
	}
	for i := 0; i < snap2.Len(); i++ {
		_, r1 := snap1.At(i)
		_, r2 := snap2.At(i)
		if len(r1) > 0 && &r1[0] != &r2[0] {
			t.Fatalf("no-op step copied result %d instead of sharing it", i)
		}
	}

	// Unregister drops the query from the next snapshot; the old snapshot
	// is immutable and still holds it.
	eng.Unregister(3)
	if eng.Snapshot().Result(3) != nil {
		t.Fatal("unregistered query still in the latest snapshot")
	}
	if snap2.Result(3) == nil {
		t.Fatal("immutable older snapshot lost a query")
	}
}

// TestConcurrentSnapshotReadersChurn is the serving runtime's core
// concurrency property: several reader goroutines hammer Result and
// Snapshot on every engine while a 60-timestamp churn run (object
// moves/inserts/deletes, query moves/installs/terminations, edge weight
// changes) is stepping with a parallel worker pool. Every observed
// snapshot must be internally consistent — all results from one epoch,
// i.e. exactly equal to the reference results of the timestamp it
// advertises — and epochs must be monotone per reader. CI runs this under
// the race detector, which additionally proves the reads are performed
// without locking against Step.
func TestConcurrentSnapshotReadersChurn(t *testing.T) {
	for _, k := range paperEngines {
		t.Run(k.name, func(t *testing.T) {
			testConcurrentReaders(t, k.mk)
		})
	}
}

// refState is the reference result set of one timestamp: every live
// query's k-NN result, deep-copied.
type refState map[QueryID][]Neighbor

func testConcurrentReaders(t *testing.T, mk func(*roadnet.Network, Options) Engine) {
	const (
		nSteps  = 60
		readers = 4
	)
	// The reference (serial, not serving) and the serving engine (parallel
	// pipeline) start from the same state; the whole stream is generated up
	// front so that the reference can record every timestamp's results
	// before the serving run's readers look for them.
	w := newLockstepWorldOf(t, 4242, 80, 40, 10, 4, func(build func() *roadnet.Network) []Engine {
		return []Engine{mk(build(), Options{Workers: 1}), mk(build(), Options{Workers: 4, Serving: true})}
	})
	w.churn = true
	ref, eng := w.engines[0], w.engines[1]
	refAt := make([]refState, nSteps+1)
	record := func(ts int) {
		st := make(refState)
		for _, id := range ref.Queries() {
			st[id] = append([]Neighbor(nil), ref.Result(id)...)
		}
		refAt[ts] = st
	}
	record(0)
	steps := make([]Updates, nSteps)
	for ts := range steps {
		steps[ts] = w.next(ts+1, 0.3, 0.3, 0.1)
		ref.Step(steps[ts])
		record(ts + 1)
	}

	// Serving run: concurrent readers.
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			n := 0
			for {
				select {
				case <-stopc:
					return
				default:
				}
				snap := eng.Snapshot()
				if snap == nil {
					t.Error("serving engine returned nil snapshot")
					return
				}
				if snap.Epoch() < lastEpoch {
					t.Errorf("reader %d: epoch went backwards (%d < %d)", r, snap.Epoch(), lastEpoch)
					return
				}
				lastEpoch = snap.Epoch()
				ts := snap.Timestamp()
				if ts > nSteps {
					t.Errorf("reader %d: snapshot at impossible timestamp %d", r, ts)
					return
				}
				want := refAt[ts]
				if snap.Len() != len(want) {
					t.Errorf("reader %d: snapshot at ts %d has %d queries, reference has %d (torn epoch?)",
						r, ts, snap.Len(), len(want))
					return
				}
				for i := 0; i < snap.Len(); i++ {
					id, res := snap.At(i)
					if !slices.Equal(res, want[id]) {
						t.Errorf("reader %d: ts %d query %d: snapshot %v != reference %v (results from mixed epochs?)",
							r, ts, id, res, want[id])
						return
					}
				}
				// Exercise the lock-free Result path too (it reads the same
				// atomic snapshot; content is covered by the check above).
				if snap.Len() > 0 {
					id, _ := snap.At(n % snap.Len())
					_ = eng.Result(id)
				}
				n++
				reads.Add(int64(snap.Len() + 1))
				runtime.Gosched()
			}
		}(r)
	}

	for ts := 0; ts < nSteps; ts++ {
		eng.Step(steps[ts])
	}
	close(stopc)
	wg.Wait()
	if t.Failed() {
		return
	}
	if reads.Load() == 0 {
		t.Fatal("readers performed no reads")
	}

	// The serving run's final state must equal the reference (worker count
	// and concurrent readers change nothing).
	final := eng.Snapshot()
	if final.Timestamp() != nSteps {
		t.Fatalf("final snapshot at ts %d, want %d", final.Timestamp(), nSteps)
	}
	want := refAt[nSteps]
	if final.Len() != len(want) {
		t.Fatalf("final snapshot has %d queries, want %d", final.Len(), len(want))
	}
	for i := 0; i < final.Len(); i++ {
		id, res := final.At(i)
		if !slices.Equal(res, want[id]) {
			t.Fatalf("final snapshot query %d: %v != %v", id, res, want[id])
		}
	}
	t.Logf("%d snapshot reads across %d readers over %d timestamps", reads.Load(), readers, nSteps)
}
