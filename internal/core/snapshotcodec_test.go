package core

import (
	"bytes"
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

	crc1, _ := snap.CRC(nil)
	crc2, _ := snap.CRC(make([]byte, 0, 64))
	if crc1 != crc2 {
		t.Fatalf("CRC depends on the scratch buffer: %08x vs %08x", crc1, crc2)
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
