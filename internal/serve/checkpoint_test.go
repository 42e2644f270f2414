package serve

import (
	"io"
	"slices"
	"testing"

	"roadknn"
	"roadknn/internal/graph"
	"roadknn/internal/wal"
)

// lastCheckpoint decodes the newest checkpoint s's log holds.
func lastCheckpoint(t *testing.T, s *Server) *wal.Checkpoint {
	t.Helper()
	rc, _, _, err := s.cfg.WAL.CheckpointReader()
	if err != nil || rc == nil {
		t.Fatalf("no checkpoint to read: %v", err)
	}
	defer rc.Close()
	img, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wal.DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// liveEdges is every live edge of s's graph with its weight, by id.
func liveEdges(s *Server) []wal.EdgeState {
	var edges []wal.EdgeState
	s.eng.Network().G.ForEachEdge(func(e *graph.Edge) { edges = append(edges, wal.EdgeState{Edge: e.ID, W: e.W}) })
	return edges
}

// TestCheckpointEdgesAreTheGraph checkpoints after every tick while one
// edge id is reported, removed, reused by an insertion, and reported in the
// tick that removes it again. Each checkpoint's Edges must be the graph's
// live edges and weights, and hold the one edge as the graph does: at the
// reported weight, absent, at the inserted road's weight (not the dead
// road's last report), absent. A server recovered from the log must
// publish the same snapshot.
func TestCheckpointEdgesAreTheGraph(t *testing.T) {
	mem := wal.NewMemFS()
	s, _, rec := newWALServer(t, mem, 1)
	if _, err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	const e = roadknn.EdgeID(7)
	g := s.eng.Network().G
	u, v := g.Edge(e).U, g.Edge(e).V
	steps := []struct {
		name   string
		report func(b *Batcher)
		alive  bool
		w      float64
	}{
		{"a weight report", func(b *Batcher) { b.Edge(e, 2.5) }, true, 2.5},
		{"the edge's removal", func(b *Batcher) { b.RemoveEdge(e) }, false, 0},
		{"its id reused by an insertion", func(b *Batcher) {
			if id := b.AddEdge(u, v, 4); id != e {
				t.Fatalf("insertion assigned edge %d, want the freed %d", id, e)
			}
		}, true, 4},
		{"a report in its removal's tick", func(b *Batcher) {
			if err := b.Edge(e, 9); err != nil {
				t.Fatal(err)
			}
			if err := b.RemoveEdge(e); err != nil {
				t.Fatal(err)
			}
		}, false, 0},
	}
	for _, st := range steps {
		ingest(s, st.report)
		s.Tick()
		c := lastCheckpoint(t, s)
		if want := liveEdges(s); !slices.Equal(c.Edges, want) {
			t.Fatalf("after %s: checkpoint edges %v, the graph's live edges %v", st.name, c.Edges, want)
		}
		i := slices.IndexFunc(c.Edges, func(es wal.EdgeState) bool { return es.Edge == e })
		switch {
		case (i >= 0) != st.alive:
			t.Fatalf("after %s: edge %d listed %v, want %v", st.name, e, i >= 0, st.alive)
		case st.alive && c.Edges[i].W != graph.QuantiseWeight(st.w):
			t.Fatalf("after %s: edge %d at weight %v, want %v", st.name, e, c.Edges[i].W, st.w)
		}
	}
	want := snapBytes(s)
	s.Close()
	s2, _, rec2 := newWALServer(t, mem, 1)
	defer s2.Close()
	if _, err := s2.Recover(rec2); err != nil {
		t.Fatal(err)
	}
	if got := snapBytes(s2); !slices.Equal(got, want) {
		t.Fatal("recovered snapshot differs from the live one")
	}
}

// TestOverrideOnlyCheckpointInstalls: a checkpoint image in the older form,
// whose Edges hold only the weights reported since startup on edges still
// live (a removal dropped its edge's entry, and a report that raced its
// edge's removal was never entered), still recovers a server to the live
// server's snapshot CRC. The image is built by hand from the live server's
// state and written through a fresh log.
func TestOverrideOnlyCheckpointInstalls(t *testing.T) {
	s, _, rec := newWALServer(t, wal.NewMemFS(), 0)
	defer s.Close()
	if _, err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	g := s.eng.Network().G
	u, v := g.Edge(8).U, g.Edge(8).V
	for _, report := range []func(b *Batcher){
		func(b *Batcher) {
			b.Object(1, roadknn.Position{Edge: 3, Frac: 0.5})
			b.Object(2, roadknn.Position{Edge: 8, Frac: 0.25})
			b.Query(1, 2, roadknn.Position{Edge: 11, Frac: 0.5})
			b.Query(2, 3, roadknn.Position{Edge: 8, Frac: 0.75})
			b.Edge(3, 2.5)
			b.Edge(8, 0.75)
		},
		func(b *Batcher) { b.Edge(3, 4); b.RemoveEdge(8) },
		func(b *Batcher) { b.AddEdge(u, v, 6); b.Edge(11, 1.25) },
		func(b *Batcher) { b.Edge(12, 3); b.RemoveEdge(12) },
	} {
		ingest(s, report)
		s.Tick()
	}
	objs, qrys, topo := s.batch.CheckpointState()
	snap := s.eng.Snapshot()
	c := &wal.Checkpoint{
		Epoch: snap.Epoch(), Stamp: s.seq,
		Objects: objs, Queries: qrys, Topology: topo,
		Edges:    []wal.EdgeState{{Edge: 3, W: 4}, {Edge: 11, W: 1.25}},
		Snapshot: snap.AppendBinary(nil),
	}
	mem := wal.NewMemFS()
	l, _, err := wal.Open(mem, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	l.Close()

	s2, _, rec2 := newWALServer(t, mem, 0)
	defer s2.Close()
	if rec2.Checkpoint == nil || len(rec2.Checkpoint.Edges) != 2 {
		t.Fatalf("recovery read checkpoint %+v", rec2.Checkpoint)
	}
	if _, err := s2.Recover(rec2); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.eng.Snapshot().CRC32(), snap.CRC32(); got != want {
		t.Fatalf("recovered snapshot crc %08x, the live server's %08x", got, want)
	}
}
