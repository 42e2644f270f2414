package core

import (
	"bytes"
	"math"
	"testing"

	"roadknn/internal/roadnet"
)

// The snapshot and delta codecs are the currency of the durability and
// streaming subsystems: checkpoints, WAL divergence checks and delta
// subscribers all feed them bytes that crossed a disk or a network. These
// targets pin the two safety properties down under arbitrary input:
// decoding never panics and never allocates proportionally to a corrupt
// length field, and any input that decodes successfully re-encodes to the
// identical bytes (the encoding is canonical — one form per value).

func fuzzSnapshotSeeds() [][]byte {
	mk := func(epoch, stamp uint64, ids []QueryID, res [][]Neighbor) []byte {
		s := &Snapshot{epoch: epoch, stamp: stamp, ids: ids, res: res}
		return s.AppendBinary(nil)
	}
	return [][]byte{
		mk(0, 0, nil, nil),
		mk(1, 1, []QueryID{5}, [][]Neighbor{{{Obj: 9, Dist: 1.25}}}),
		mk(42, 17, []QueryID{1, 3, 8}, [][]Neighbor{
			{{Obj: 2, Dist: 0.5}, {Obj: 7, Dist: 1.5}},
			nil,
			{{Obj: 1, Dist: math.Inf(1)}},
		}),
	}
}

func FuzzSnapshotCodec(f *testing.F) {
	for _, seed := range fuzzSnapshotSeeds() {
		f.Add(seed)
		f.Add(seed[:len(seed)-1]) // torn tail
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		if got := s.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(got))
		}
		checkEncodedLen(t, "decoded", s)
	})
}

func FuzzDeltaCodec(f *testing.F) {
	mk := func(epoch, stamp uint64, qs []QueryDelta) []byte {
		return NewDelta(epoch, stamp, qs).AppendBinary(nil)
	}
	seeds := [][]byte{
		mk(1, 1, nil),
		mk(7, 3, []QueryDelta{{ID: 2, Removed: true}}),
		mk(9, 4, []QueryDelta{
			{ID: 1, Left: []roadnet.ObjectID{4, 8}, Updated: []Neighbor{{Obj: 2, Dist: 0.25}}},
			{ID: 6, Updated: []Neighbor{{Obj: 3, Dist: math.NaN()}}},
		}),
	}
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDelta(data)
		if err != nil {
			return
		}
		if got := d.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(got))
		}
		if n := d.EncodedLen(); n != len(data) {
			t.Fatalf("EncodedLen %d for a %d-byte encoding", n, len(data))
		}
	})
}
