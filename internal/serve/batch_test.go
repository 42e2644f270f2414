package serve

import (
	"testing"

	"roadknn"
)

func pos(e int32, f float64) roadknn.Position {
	return roadknn.Position{Edge: roadknn.EdgeID(e), Frac: f}
}

func TestBatcherCoalescesMoves(t *testing.T) {
	b := NewBatcher()
	b.InitTopology(8, nil)
	b.Object(1, pos(0, 0.1))
	u := b.Drain()
	if len(u.Objects) != 1 || !u.Objects[0].Insert {
		t.Fatalf("first report should insert: %+v", u.Objects)
	}

	// Three moves in one tick collapse to one, to the last position.
	b.Object(1, pos(0, 0.3))
	b.Object(1, pos(1, 0.5))
	b.Object(1, pos(2, 0.7))
	u = b.Drain()
	if len(u.Objects) != 1 {
		t.Fatalf("moves not coalesced: %+v", u.Objects)
	}
	mv := u.Objects[0]
	if mv.Insert || mv.Delete || mv.New != pos(2, 0.7) {
		t.Fatalf("bad coalesced move: %+v", mv)
	}

	// Re-reporting the applied position is a no-op batch.
	b.Object(1, pos(2, 0.7))
	if u = b.Drain(); len(u.Objects) != 0 {
		t.Fatalf("no-op report emitted %+v", u.Objects)
	}
}

func TestBatcherInsertDeleteWithinTick(t *testing.T) {
	b := NewBatcher()
	b.InitTopology(8, nil)
	b.Object(9, pos(0, 0.5))
	if !b.DeleteObject(9) {
		t.Fatal("pending object unknown to DeleteObject")
	}
	if u := b.Drain(); len(u.Objects) != 0 {
		t.Fatalf("insert+delete within a tick should vanish: %+v", u.Objects)
	}
	if b.DeleteObject(9) {
		t.Fatal("vanished object still deletable")
	}

	// Delete then re-report of an applied object becomes a single move.
	b.Object(2, pos(1, 0.2))
	b.Drain()
	b.DeleteObject(2)
	b.Object(2, pos(3, 0.4))
	u := b.Drain()
	if len(u.Objects) != 1 || u.Objects[0].Insert || u.Objects[0].Delete {
		t.Fatalf("delete+re-report should be a move: %+v", u.Objects)
	}
	if u.Objects[0].New != pos(3, 0.4) {
		t.Fatalf("bad move target: %+v", u.Objects[0])
	}
}

func TestBatcherQueriesAndEdges(t *testing.T) {
	b := NewBatcher()
	b.InitTopology(8, nil)
	b.Query(7, 4, pos(0, 0.1))
	b.Query(7, 9, pos(1, 0.2)) // same tick: still an install, final pos, first k... last report wins
	u := b.Drain()
	if len(u.Queries) != 1 || !u.Queries[0].Insert || u.Queries[0].K != 9 || u.Queries[0].New != pos(1, 0.2) {
		t.Fatalf("bad install: %+v", u.Queries)
	}

	// Move (k ignored), then end in a later tick.
	b.Query(7, 1, pos(2, 0.3))
	u = b.Drain()
	if len(u.Queries) != 1 || u.Queries[0].Insert || u.Queries[0].Delete {
		t.Fatalf("bad move: %+v", u.Queries)
	}
	if !b.EndQuery(7) {
		t.Fatal("known query not endable")
	}
	u = b.Drain()
	if len(u.Queries) != 1 || !u.Queries[0].Delete {
		t.Fatalf("bad end: %+v", u.Queries)
	}
	if b.EndQuery(7) {
		t.Fatal("ended query still endable")
	}

	// Install+end within one tick vanishes.
	b.Query(5, 2, pos(0, 0))
	b.EndQuery(5)
	if u = b.Drain(); len(u.Queries) != 0 {
		t.Fatalf("install+end should vanish: %+v", u.Queries)
	}

	// Re-reporting a stationary query emits nothing (no spurious
	// detach/attach churn in the engine).
	b.Query(4, 2, pos(5, 0.5))
	b.Drain()
	b.Query(4, 2, pos(5, 0.5))
	if u = b.Drain(); len(u.Queries) != 0 {
		t.Fatalf("stationary query re-report emitted %+v", u.Queries)
	}

	// Edge weights: last report per edge wins, first-report order kept.
	b.Edge(3, 10)
	b.Edge(1, 20)
	b.Edge(3, 30)
	u = b.Drain()
	if len(u.Edges) != 2 || u.Edges[0] != (roadknn.EdgeUpdate{Edge: 3, NewW: 30}) ||
		u.Edges[1] != (roadknn.EdgeUpdate{Edge: 1, NewW: 20}) {
		t.Fatalf("bad edge batch: %+v", u.Edges)
	}
}

// TestBatcherEndReinstallWithinTick: an end followed by a re-report of an
// applied query within one tick must terminate and re-install so the new
// k takes effect — not degrade to a move that keeps the old k.
func TestBatcherEndReinstallWithinTick(t *testing.T) {
	b := NewBatcher()
	b.InitTopology(8, nil)
	b.Query(7, 2, pos(0, 0.1))
	b.Drain()

	b.EndQuery(7)
	b.Query(7, 5, pos(3, 0.2))
	u := b.Drain()
	if len(u.Queries) != 2 {
		t.Fatalf("end+reinstall should emit delete+insert, got %+v", u.Queries)
	}
	if !u.Queries[0].Delete || u.Queries[0].ID != 7 {
		t.Fatalf("first update should terminate: %+v", u.Queries[0])
	}
	ins := u.Queries[1]
	if !ins.Insert || ins.K != 5 || ins.New != pos(3, 0.2) {
		t.Fatalf("second update should re-install with the new k: %+v", ins)
	}

	// A move after the reinstall (same tick sequence continues) stays a
	// reinstall with the final position.
	b.EndQuery(7)
	b.Query(7, 9, pos(1, 0.4))
	b.Query(7, 9, pos(2, 0.6))
	u = b.Drain()
	if len(u.Queries) != 2 || !u.Queries[0].Delete || !u.Queries[1].Insert ||
		u.Queries[1].K != 9 || u.Queries[1].New != pos(2, 0.6) {
		t.Fatalf("end+reinstall+move mis-coalesced: %+v", u.Queries)
	}

	// Verify against a real engine: the re-installed query serves k=5.
	net := roadknn.GenerateNetwork(200, 3)
	eng := roadknn.NewIMAWith(net, roadknn.Options{Workers: 1, Serving: true})
	defer eng.Close()
	eb := NewBatcher()
	eb.InitTopology(net.G.NumEdges(), nil)
	for i := 0; i < 20; i++ {
		eb.Object(roadknn.ObjectID(i), pos(int32(i%40), 0.5))
	}
	eb.Query(1, 2, pos(0, 0.5))
	eng.Step(eb.Drain())
	if got := len(eng.Result(1)); got != 2 {
		t.Fatalf("initial k=2 query returned %d neighbors", got)
	}
	eb.EndQuery(1)
	eb.Query(1, 5, pos(0, 0.5))
	eng.Step(eb.Drain())
	if got := len(eng.Result(1)); got != 5 {
		t.Fatalf("re-installed k=5 query returned %d neighbors", got)
	}
}

// TestBatcherNeedsK: needsK must be true exactly when a report's k would
// reach Engine.Register at Drain — fresh installs, pending installs
// (last report's k wins), and anything after an end.
func TestBatcherNeedsK(t *testing.T) {
	b := NewBatcher()
	b.InitTopology(8, nil)
	if !b.needsK(1) {
		t.Fatal("unknown query should need k")
	}
	b.Query(1, 2, pos(0, 0.1))
	if !b.needsK(1) {
		t.Fatal("pending install still consumes the last report's k")
	}
	b.Drain()
	if b.needsK(1) {
		t.Fatal("applied query moves without k")
	}
	b.EndQuery(1)
	if !b.needsK(1) {
		t.Fatal("ended query re-installs, needs k")
	}
	b.Query(1, 3, pos(1, 0.2))
	if !b.needsK(1) {
		t.Fatal("reinstall chain still consumes the last report's k")
	}
	b.Drain()
	if b.needsK(1) {
		t.Fatal("re-applied query moves without k")
	}
}

// TestBatcherDeterministicReplicas feeds two batcher+engine replicas the
// same event stream with the same tick boundaries — one serial, one with
// a worker pool — and checks they serve bit-identical snapshots: the
// replica-consistency property the deterministic pipeline gives the
// serving layer. (Identical tick boundaries matter: ticking the same
// stream at different boundaries converges to the same k-NN sets but may
// differ in the last float ulp, because incremental distance maintenance
// accumulates rounding per applied batch.)
func TestBatcherDeterministicReplicas(t *testing.T) {
	net1 := roadknn.GenerateNetwork(200, 3)
	net2 := roadknn.GenerateNetwork(200, 3)
	e1 := roadknn.NewIMAWith(net1, roadknn.Options{Workers: 1, Serving: true})
	defer e1.Close()
	e2 := roadknn.NewIMAWith(net2, roadknn.Options{Workers: 4, Serving: true})
	defer e2.Close()

	b1, b2 := NewBatcher(), NewBatcher()
	b1.InitTopology(net1.G.NumEdges(), nil)
	b2.InitTopology(net2.G.NumEdges(), nil)
	feed := func(b *Batcher, i int) {
		b.Object(roadknn.ObjectID(i%13), pos(int32(i%50), float64(i%10)/10))
		if i%4 == 0 {
			b.Query(roadknn.QueryID(i%5), 3, pos(int32(i%40), 0.5))
		}
		if i%6 == 0 {
			b.Edge(roadknn.EdgeID(i%30), 1+float64(i%7))
		}
	}
	for i := 0; i < 120; i++ {
		feed(b1, i)
		feed(b2, i)
		if i%3 == 0 {
			e1.Step(b1.Drain())
			e2.Step(b2.Drain())
		}
	}
	e1.Step(b1.Drain())
	e2.Step(b2.Drain())

	s1, s2 := e1.Snapshot(), e2.Snapshot()
	if s1.Len() != s2.Len() || s1.Len() == 0 {
		t.Fatalf("replicas disagree on query count: %d vs %d", s1.Len(), s2.Len())
	}
	for i := 0; i < s1.Len(); i++ {
		id1, r1 := s1.At(i)
		id2, r2 := s2.At(i)
		if id1 != id2 || len(r1) != len(r2) {
			t.Fatalf("replicas diverge at %d: q%d(%d) vs q%d(%d)", i, id1, len(r1), id2, len(r2))
		}
		for j := range r1 {
			if r1[j] != r2[j] {
				t.Fatalf("query %d neighbor %d: %v vs %v", id1, j, r1[j], r2[j])
			}
		}
	}
}
