package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"roadknn/internal/frame"
	"roadknn/internal/roadnet"
)

// This file gives snapshots a canonical binary form, the currency of the
// durability subsystem (internal/wal): checkpoints embed the serialized
// snapshot so recovery can prove the rebuilt engine bit-identical to the
// crashed one, tick records carry its CRC so WAL replay detects divergence
// (e.g. an operator restarting against a different network file), and the
// recovery tests bit-compare recovered engines against never-crashed
// replicas through it. The encoding is deterministic: two snapshots encode
// to the same bytes iff they have the same epoch, timestamp, query set and
// per-query results (distances compared by their float64 bit patterns).
//
// Layout (little-endian, no varints — the format is an internal artifact
// versioned by the enclosing WAL/checkpoint container, not a public wire
// format):
//
//	u64 epoch | u64 timestamp | u32 nQueries
//	per query (ascending id): i32 id | u32 nNeighbors
//	per neighbor:             i32 obj | u64 float64bits(dist)

// AppendBinary appends the snapshot's canonical encoding to buf and
// returns the extended slice. Safe for concurrent use (snapshots are
// immutable).
func (s *Snapshot) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, s.epoch)
	buf = binary.LittleEndian.AppendUint64(buf, s.stamp)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.ids)))
	for i, id := range s.ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.res[i])))
		for _, nb := range s.res[i] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(nb.Obj))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(nb.Dist))
		}
	}
	return buf
}

// EncodedLen returns len(s.AppendBinary(nil)) without encoding: what the
// snapshot weighs on the wire, and what a resync from it costs.
func (s *Snapshot) EncodedLen() int {
	n := 20 // epoch, stamp, query count
	for _, row := range s.res {
		n += 8 + 12*len(row)
	}
	return n
}

// MarshalBinary returns the snapshot's canonical encoding.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(nil), nil
}

// CRC returns the IEEE CRC32 of the snapshot's canonical encoding,
// appending the intermediate bytes to buf (callers reuse buf to keep the
// per-tick checksum allocation-free). The returned slice is buf extended;
// the checksum covers only the bytes appended by this call.
func (s *Snapshot) CRC(buf []byte) (uint32, []byte) {
	start := len(buf)
	buf = s.AppendBinary(buf)
	crc := crc32.ChecksumIEEE(buf[start:])
	s.crcOnce.Do(func() { s.crcVal = crc })
	return crc, buf
}

// CRC32 returns the IEEE CRC32 of the snapshot's canonical encoding,
// computed at most once per snapshot (immutability makes the value
// cacheable). This is the per-tick checksum the WAL logs and follower
// replicas verify against; safe for concurrent use.
func (s *Snapshot) CRC32() uint32 {
	s.crcOnce.Do(func() {
		s.crcVal = crc32.ChecksumIEEE(s.AppendBinary(nil))
	})
	return s.crcVal
}

// UnmarshalSnapshot decodes a canonical snapshot encoding. The result is a
// detached, immutable snapshot (not published anywhere); it is the read
// side used by checkpoint loading and debugging tools.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	d := frame.NewCursor(data)
	s := &Snapshot{
		epoch: d.U64(),
		stamp: d.U64(),
	}
	n := d.Count(8) // id + neighbor count
	s.ids = make([]QueryID, 0, n)
	s.res = make([][]Neighbor, 0, n)
	for i := 0; i < n; i++ {
		id := QueryID(d.U32())
		res := make([]Neighbor, d.Count(12))
		for j := range res {
			res[j] = Neighbor{Obj: roadnet.ObjectID(d.I32()), Dist: d.F64()}
		}
		s.ids = append(s.ids, id)
		s.res = append(s.res, res)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return s, nil
}
