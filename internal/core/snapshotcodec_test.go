package core

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

func servingIMAForCodec(t *testing.T) *Incremental {
	t.Helper()
	net := roadnet.NewNetwork(gen.SanFranciscoLike(200, 3))
	e := NewIMAWith(net, Options{Workers: 1, Serving: true})
	t.Cleanup(e.Close)
	return e
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	e := servingIMAForCodec(t)
	var u Updates
	for i := 0; i < 20; i++ {
		u.Objects = append(u.Objects, ObjectUpdate{
			ID: roadnet.ObjectID(i), New: roadnet.Position{Edge: graph.EdgeID(i * 7 % 100), Frac: 0.25}, Insert: true,
		})
	}
	u.Queries = append(u.Queries,
		QueryUpdate{ID: 1, New: roadnet.Position{Edge: 0, Frac: 0.5}, K: 3, Insert: true},
		QueryUpdate{ID: 9, New: roadnet.Position{Edge: 11, Frac: 0.1}, K: 5, Insert: true},
	)
	e.Step(u)

	snap := e.Snapshot()
	enc, err := snap.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	dec, err := UnmarshalSnapshot(enc)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if dec.Epoch() != snap.Epoch() || dec.Timestamp() != snap.Timestamp() || dec.Len() != snap.Len() {
		t.Fatalf("header mismatch: got (%d,%d,%d) want (%d,%d,%d)",
			dec.Epoch(), dec.Timestamp(), dec.Len(), snap.Epoch(), snap.Timestamp(), snap.Len())
	}
	reenc, _ := dec.MarshalBinary()
	if !bytes.Equal(enc, reenc) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}
	checkEncodedLen(t, "published", snap)
	checkEncodedLen(t, "decoded", dec)

	// The encoding is deterministic and content-sensitive.
	enc2, _ := e.Snapshot().AppendBinary(nil), error(nil)
	if !bytes.Equal(enc, enc2) {
		t.Fatal("encoding the same snapshot twice differs")
	}
	e.Step(Updates{Objects: []ObjectUpdate{{ID: 99, New: roadnet.Position{Edge: 0, Frac: 0.51}, Insert: true}}})
	enc3 := e.Snapshot().AppendBinary(nil)
	if bytes.Equal(enc, enc3) {
		t.Fatal("snapshots at different epochs encoded identically")
	}

	if got, want := snap.CRC32(), crc32.ChecksumIEEE(enc); got != want {
		t.Fatalf("CRC32 %08x, the checksum of the encoding %08x", got, want)
	}
}

// TestCRC32MatchesEncoding holds the chunked CRC32 to the checksum of the
// whole encoding at the chunk's edges: no rows, a row longer than a chunk,
// rows that end exactly where a chunk does (and one neighbour short of it),
// and a snapshot of Table 2's size (5,000 queries, k = 50).
func TestCRC32MatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// rows builds a snapshot with one row per length given.
	rows := func(lens ...int) *Snapshot {
		s := &Snapshot{epoch: rng.Uint64(), stamp: rng.Uint64()}
		for i, n := range lens {
			row := make([]Neighbor, n)
			for j := range row {
				row[j] = Neighbor{Obj: roadnet.ObjectID(rng.Int31()), Dist: rng.Float64() * 100}
			}
			s.ids = append(s.ids, QueryID(i*3+1))
			s.res = append(s.res, row)
		}
		return s
	}
	// first is the neighbour count of a first row that ends exactly on the
	// first chunk boundary, pair that of each of two rows that together fill
	// the next chunk.
	first, pair := (crcChunk-20-8)/12, (crcChunk/2-8)/12
	if 20+8+first*12 != crcChunk || 2*(8+pair*12) != crcChunk {
		t.Fatalf("test premise: no rows end on the chunk boundaries")
	}
	table2 := make([]int, 5000)
	for i := range table2 {
		table2[i] = 50
	}
	for _, c := range []struct {
		name string
		snap *Snapshot
	}{
		{"empty", &Snapshot{}},
		{"empty at an epoch", rows()},
		{"rows without neighbours", rows(0, 0, 0)},
		{"a row longer than a chunk", rows(3, 3*crcChunk/12, 2)},
		{"a row ending on the chunk boundary", rows(first)},
		{"rows ending on two chunk boundaries", rows(first, pair, pair, 1)},
		{"a row one neighbour short of the boundary", rows(first-1, 5)},
		{"a row one neighbour past the boundary", rows(first+1, 5)},
		{"a chunk of row headers", rows(make([]int, 2*crcChunk/8)...)},
		{"Table 2's size", rows(table2...)},
	} {
		enc := c.snap.AppendBinary(nil)
		if got, want := c.snap.CRC32(), crc32.ChecksumIEEE(enc); got != want {
			t.Errorf("%s (%d bytes): CRC32 %08x, the checksum of the encoding %08x", c.name, len(enc), got, want)
		}
	}
}

// checkEncodedLen fails unless s.EncodedLen() is the length of its encoding.
// Published snapshots, decoded ones and those Delta.Apply builds each have
// their own constructor, so each kind is checked where it is made.
func checkEncodedLen(t *testing.T, kind string, s *Snapshot) {
	t.Helper()
	if n, enc := s.EncodedLen(), s.AppendBinary(nil); n != len(enc) {
		t.Fatalf("%s snapshot at epoch %d: EncodedLen %d, encoding is %d bytes", kind, s.Epoch(), n, len(enc))
	}
}

func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	e := servingIMAForCodec(t)
	e.Step(Updates{
		Objects: []ObjectUpdate{{ID: 1, New: roadnet.Position{Edge: 0, Frac: 0.5}, Insert: true}},
		Queries: []QueryUpdate{{ID: 1, New: roadnet.Position{Edge: 0, Frac: 0.1}, K: 1, Insert: true}},
	})
	enc := e.Snapshot().AppendBinary(nil)
	if _, err := UnmarshalSnapshot(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated snapshot decoded without error")
	}
	if _, err := UnmarshalSnapshot(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	huge := append([]byte(nil), enc...)
	huge[16] = 0xff // inflate the query count far past the buffer
	huge[17] = 0xff
	if _, err := UnmarshalSnapshot(huge); err == nil {
		t.Fatal("absurd query count decoded without error")
	}
}

func TestRestoreClockContinuesSequence(t *testing.T) {
	e := servingIMAForCodec(t)
	e.Step(Updates{
		Objects: []ObjectUpdate{{ID: 1, New: roadnet.Position{Edge: 0, Frac: 0.5}, Insert: true}},
		Queries: []QueryUpdate{{ID: 1, New: roadnet.Position{Edge: 0, Frac: 0.1}, K: 1, Insert: true}},
	})
	var _ ClockRestorer = e
	e.RestoreClock(41, 17)
	snap := e.Snapshot()
	if snap.Epoch() != 41 || snap.Timestamp() != 17 {
		t.Fatalf("restored snapshot at (%d,%d), want (41,17)", snap.Epoch(), snap.Timestamp())
	}
	if got := snap.Result(1); len(got) != 1 {
		t.Fatalf("restore lost the published results: %v", got)
	}
	e.Step(Updates{})
	snap = e.Snapshot()
	if snap.Epoch() != 42 || snap.Timestamp() != 18 {
		t.Fatalf("post-restore step at (%d,%d), want (42,18)", snap.Epoch(), snap.Timestamp())
	}
}
