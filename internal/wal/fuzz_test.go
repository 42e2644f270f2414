package wal

import (
	"bytes"
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/roadnet"
)

// FuzzWALRecord feeds arbitrary payloads to the record-replay path a real
// recovery runs after CRC verification — the layer that must hold even
// when the checksum collides or a test hand-crafts a segment. Each input is
// replayed as a record of a version-1 and of a current segment. Whatever
// the bytes: no panic, no oversized allocation, and a payload that applies
// cleanly must apply identically to a fresh recovery state (replay is
// deterministic).
func FuzzWALRecord(f *testing.F) {
	f.Add(v1Frames(f)[0]) // a version-1 batch: the golden batch with departures
	f.Add(encodeBatch(1, testUpdates(3)))
	f.Add(encodeBatch(1, core.Updates{}))
	f.Add(encodeTick(7, 7, 0xdeadbeef))
	f.Add(encodePending(testUpdates(5)))
	f.Add([]byte{recBatch})
	f.Add([]byte{recPending, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	seed := encodeBatch(1, testUpdates(2))
	f.Add(seed[:len(seed)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []uint32{1, segVersion} {
			apply := func() (Recovery, uint64, error) {
				rec := Recovery{}
				prevSeq := uint64(0)
				err := applyRecord(data, v, &rec, &prevSeq)
				return rec, prevSeq, err
			}
			rec1, seq1, err1 := apply()
			rec2, seq2, err2 := apply()
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("v%d replay not deterministic: %v vs %v", v, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if seq1 != seq2 || len(rec1.Batches) != len(rec2.Batches) ||
				(rec1.Pending == nil) != (rec2.Pending == nil) {
				t.Fatalf("v%d replay not deterministic: seq %d/%d, %d/%d batches",
					v, seq1, seq2, len(rec1.Batches), len(rec2.Batches))
			}
			for i := range rec1.Batches {
				// Compare through the encoder: float fields may hold NaN
				// payloads (updatesEqual's == would call identical NaNs
				// unequal).
				a := encodeBatch(rec1.Batches[i].Seq, rec1.Batches[i].Updates)
				b := encodeBatch(rec2.Batches[i].Seq, rec2.Batches[i].Updates)
				if !bytes.Equal(a, b) {
					t.Fatalf("v%d replay not deterministic at batch %d", v, i)
				}
			}
		}
	})
}

// FuzzCheckpointDecode covers the other recovery input: checkpoint files,
// read whole off disk before the engine is rebuilt from them. Decoding
// arbitrary bytes never panics, and any image that passes the embedded CRC
// and structure checks re-encodes to the identical bytes, so rewritten
// checkpoints never drift.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(encodeCheckpoint(&Checkpoint{Stamp: 3, Epoch: 3}))
	f.Add(encodeCheckpoint(&Checkpoint{
		Stamp: 9, Epoch: 9,
		Objects:  []ObjectState{{ID: 1, Pos: roadnet.Position{Edge: 2, Frac: 0.5}}},
		Queries:  []QueryState{{ID: 4, K: 3, Pos: roadnet.Position{Edge: 0, Frac: 0.25}}},
		Edges:    []EdgeState{{Edge: 7, W: 1.5}},
		Snapshot: []byte{1, 2, 3, 4},
	}))
	f.Add([]byte{})
	f.Add([]byte("RKCP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if got := encodeCheckpoint(c); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(got))
		}
	})
}
