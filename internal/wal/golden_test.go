package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden files from the current code")

// checkGolden holds got against testdata/golden/name byte for byte and
// returns the golden bytes, so the caller can also feed them to the read
// side. The files pin the on-disk formats: they are regenerated only by a
// deliberate format change (go test -update), never by a refactor.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: wrote %d bytes that differ from the %d golden bytes\n got %x\nwant %x", name, len(got), len(want), got, want)
	}
	return want
}

func goldenUpdates() (batch, pending core.Updates) {
	batch = core.Updates{
		Objects: []core.ObjectUpdate{
			{ID: 1, Insert: true, New: roadnet.Position{Edge: 0, Frac: 0.25}},
			{ID: 2, Old: roadnet.Position{Edge: 1, Frac: 0.5}, New: roadnet.Position{Edge: 2, Frac: 0.75}},
			{ID: 3, Delete: true, Old: roadnet.Position{Edge: 3, Frac: 1}},
		},
		Queries: []core.QueryUpdate{
			{ID: 7, Insert: true, K: 2, New: roadnet.Position{Edge: 0, Frac: 0.5}},
			{ID: 9, Delete: true},
		},
		Edges: []core.EdgeUpdate{{Edge: 1, NewW: 2.5}},
		Topology: []core.TopologyUpdate{
			{Op: core.TopoAdd, Edge: 4, U: 0, V: 2, W: 6},
			{Op: core.TopoRemove, Edge: 3},
		},
	}
	pending = core.Updates{
		Objects: []core.ObjectUpdate{{ID: 5, Insert: true, New: roadnet.Position{Edge: 2, Frac: 0.125}}},
	}
	return batch, pending
}

// TestGoldenSegment pins the RKWL segment format: the header and one
// batch, tick and pending record. The golden bytes must also recover to
// the records that wrote them.
func TestGoldenSegment(t *testing.T) {
	batch, pending := goldenUpdates()
	mem := NewMemFS()
	l, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTick(1, 1, 0xfeedc0de); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPending(pending); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := checkGolden(t, "segment.rkwl", mem.Bytes(segmentName(1)))

	disk := NewMemFS()
	f, _ := disk.Create(segmentName(1))
	f.Write(want)
	l2, rec, err := Open(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.TruncatedBytes != 0 || len(rec.Batches) != 1 || rec.Pending == nil {
		t.Fatalf("golden segment recovered %d batches, pending %v, %d bytes truncated",
			len(rec.Batches), rec.Pending != nil, rec.TruncatedBytes)
	}
	b := rec.Batches[0]
	if b.Seq != 1 || !reflect.DeepEqual(b.Updates, batch) {
		t.Fatalf("golden batch record decoded to seq %d %+v", b.Seq, b.Updates)
	}
	if b.Tick == nil || *b.Tick != (TickRecord{Epoch: 1, Stamp: 1, SnapCRC: 0xfeedc0de}) {
		t.Fatalf("golden tick record decoded to %+v", b.Tick)
	}
	if !reflect.DeepEqual(*rec.Pending, pending) {
		t.Fatalf("golden pending record decoded to %+v", *rec.Pending)
	}
	// The shipped form of the same records is the segment minus its header
	// and minus the pending record (a shutdown artifact, never replicated).
	recs, err := l2.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	shipped := EncodeRecords(nil, recs)
	if !bytes.HasPrefix(want[headerLen:], shipped) {
		t.Fatalf("EncodeRecords is not a prefix of the segment body:\n%x\n%x", shipped, want[headerLen:])
	}
	if back, err := DecodeRecords(shipped); err != nil || !reflect.DeepEqual(back, recs) {
		t.Fatalf("DecodeRecords(EncodeRecords) = %+v, %v", back, err)
	}
}

// TestGoldenCheckpoint pins the RKCP v2 checkpoint image.
func TestGoldenCheckpoint(t *testing.T) {
	c := &Checkpoint{
		Epoch: 12, Stamp: 11,
		Objects:  []ObjectState{{ID: 1, Pos: roadnet.Position{Edge: 0, Frac: 0.25}}, {ID: 2, Pos: roadnet.Position{Edge: 2, Frac: 0.75}}},
		Queries:  []QueryState{{ID: 7, K: 2, Pos: roadnet.Position{Edge: 0, Frac: 0.5}}},
		Edges:    []EdgeState{{Edge: graph.EdgeID(1), W: 2.5}},
		Topology: []core.TopologyUpdate{{Op: core.TopoAdd, Edge: 4, U: 0, V: 2, W: 6}, {Op: core.TopoRemove, Edge: 3}},
		Snapshot: []byte{0xde, 0xad, 0xbe, 0xef, 0x01},
	}
	mem := NewMemFS()
	l, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	img, stamp := checkpointImage(t, l)
	if stamp != c.Stamp {
		t.Fatalf("checkpoint image: stamp %d", stamp)
	}
	want := checkGolden(t, "checkpoint.rkcp", img)
	back, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("golden checkpoint decoded to %+v", back)
	}
}
