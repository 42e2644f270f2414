package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/frame"
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
			{ID: 2, New: roadnet.Position{Edge: 2, Frac: 0.75}},
			{ID: 3, Delete: true},
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

// v1Segment is testdata/golden/segment-v1.rkwl: the RKWL version-1 form of
// TestGoldenSegment's records, whose object entries also carried the
// position the object left (batch object 2 left edge 1 at 0.5, object 3
// edge 3 at 1). It is a frozen fixture: -update never rewrites it.
func v1Segment(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "segment-v1.rkwl"))
	if err != nil {
		tb.Fatal(err)
	}
	if v, err := frame.ParseHeader(data, segMagic); err != nil || v != 1 {
		tb.Fatalf("segment-v1.rkwl: version %d, %v", v, err)
	}
	return data
}

// v1Frames returns the payloads of v1Segment's records: batch, tick and
// pending.
func v1Frames(tb testing.TB) [][]byte {
	var out [][]byte
	for rest := v1Segment(tb)[headerLen:]; len(rest) > 0; {
		payload, next, err := frame.Next(rest, maxRecordLen)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, payload)
		rest = next
	}
	if len(out) != 3 {
		tb.Fatalf("segment-v1.rkwl holds %d records, want 3", len(out))
	}
	return out
}

// segmentVersion is the header version of the named segment in mem.
func segmentVersion(t *testing.T, mem *MemFS, name string) uint32 {
	t.Helper()
	v, err := frame.ParseHeader(mem.Bytes(name), segMagic)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// TestUpgradeFromV1Segment opens a store whose log is a version-1 segment:
// its records recover equal to TestGoldenSegment's (the departures are
// skipped), the next batch starts a new segment of the current version
// instead of landing in the old file, and a reopen replays both.
func TestUpgradeFromV1Segment(t *testing.T) {
	batch, pending := goldenUpdates()
	v1 := v1Segment(t)
	mem := NewMemFS()
	f, _ := mem.Create(segmentName(1))
	f.Write(v1)
	l, rec, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 || !reflect.DeepEqual(rec.Batches[0].Updates, batch) || rec.Batches[0].Tick == nil ||
		rec.Pending == nil || !reflect.DeepEqual(*rec.Pending, pending) {
		t.Fatalf("v1 segment recovered %+v, pending %+v", rec.Batches, rec.Pending)
	}
	next := core.Updates{Objects: []core.ObjectUpdate{{ID: 2, New: roadnet.Position{Edge: 0, Frac: 0.5}}}}
	if err := l.AppendBatch(2, next); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTick(2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("reopening after the upgrade: %v", err)
	}
	defer l2.Close()
	if rec2.Segments != 2 || len(rec2.Batches) != 2 || rec2.Pending != nil ||
		!reflect.DeepEqual(rec2.Batches[0].Updates, batch) || !reflect.DeepEqual(rec2.Batches[1].Updates, next) {
		t.Fatalf("reopen: %d segments, batches %+v, pending %+v", rec2.Segments, rec2.Batches, rec2.Pending)
	}
	if !bytes.Equal(mem.Bytes(segmentName(1)), v1) || segmentVersion(t, mem, segmentName(2)) != segVersion {
		t.Fatal("the append did not go to a new segment of the current version")
	}
	// The log's shipped form reads across both versions, in current records.
	recs, err := l2.ReadSince(0, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("ReadSince across versions: %+v, %v", recs, err)
	}
	if back, err := DecodeRecords(EncodeRecords(nil, recs)); err != nil || !reflect.DeepEqual(back, recs) {
		t.Fatalf("shipped records do not round-trip: %+v, %v", back, err)
	}
}

// TestUpgradeKeepsPendingOfBatchlessV1Segment: a version-1 segment that
// holds only a shutdown's pending record shares the name of the segment the
// upgrade starts, which replaces it; the pending record must survive in
// the new one.
func TestUpgradeKeepsPendingOfBatchlessV1Segment(t *testing.T) {
	_, pending := goldenUpdates()
	seg := frame.AppendHeader(nil, segMagic, 1)
	seg = frame.Append(seg, func(p []byte) []byte { return append(p, v1Frames(t)[2]...) })
	mem := NewMemFS()
	f, _ := mem.Create(segmentName(1))
	f.Write(seg)
	for round := range 2 {
		l, rec, err := Open(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Pending == nil || !reflect.DeepEqual(*rec.Pending, pending) {
			t.Fatalf("open %d: pending %+v", round, rec.Pending)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if v := segmentVersion(t, mem, segmentName(1)); v != segVersion {
			t.Fatalf("open %d left a version-%d segment", round, v)
		}
	}
}

// TestTopologySectionOptionalInV1Only: a version-1 record may end before
// the topology section (records written before live network editing did);
// a current one may not.
func TestTopologySectionOptionalInV1Only(t *testing.T) {
	batch, _ := goldenUpdates()
	cut := 4 + len(batch.Topology)*topoBytes
	v1 := v1Frames(t)[0]
	r, err := decodeRecord(v1[:len(v1)-cut], 1)
	want := batch
	want.Topology = nil
	if err != nil || !reflect.DeepEqual(r.updates, want) {
		t.Fatalf("v1 record without topology decoded to %+v, %v", r.updates, err)
	}
	v2 := encodeBatch(1, batch)[frameLen:]
	if _, err := decodeRecord(v2[:len(v2)-cut], segVersion); err == nil {
		t.Fatal("a current record without its topology section decoded")
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
