package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"roadknn/internal/core"
	"roadknn/internal/frame"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// On-disk format. A segment is a frame stream (internal/frame documents
// the header and the len | crc32c | payload frame) under the header
// "RKWL" | version 2, one record per frame, payload[0] the record type. A
// record is written with a single Write call, so a crash tears at most the
// last one — which recovery detects and truncates. Version-1 segments are
// still read (see readUpdates); the log never appends to one.
const (
	segMagic   = "RKWL"
	segVersion = 2
	headerLen  = frame.HeaderLen
	frameLen   = frame.Overhead

	// maxRecordLen bounds a single record so a corrupt length field cannot
	// make recovery attempt a multi-gigabyte allocation.
	maxRecordLen = 1 << 28
)

// Record types, with the payload after the type byte.
const (
	recBatch   = 1 // u64 seq | updates — one drained per-tick batch
	recTick    = 2 // u64 epoch | u64 stamp | u32 snapCRC — post-step marker
	recPending = 3 // updates — undrained batch flushed at shutdown
)

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int32) []byte  { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Update-flag bits shared by object and query entries.
const (
	flagInsert = 1
	flagDelete = 2
)

// appendUpdates serializes a core.Updates batch.
func appendUpdates(b []byte, u core.Updates) []byte {
	b = appendU32(b, uint32(len(u.Objects)))
	for _, o := range u.Objects {
		b = appendI32(b, int32(o.ID))
		var fl byte
		if o.Insert {
			fl |= flagInsert
		}
		if o.Delete {
			fl |= flagDelete
		}
		b = append(b, fl)
		b = appendI32(b, int32(o.New.Edge))
		b = appendF64(b, o.New.Frac)
	}
	b = appendU32(b, uint32(len(u.Queries)))
	for _, q := range u.Queries {
		b = appendI32(b, int32(q.ID))
		var fl byte
		if q.Insert {
			fl |= flagInsert
		}
		if q.Delete {
			fl |= flagDelete
		}
		b = append(b, fl)
		b = appendI32(b, int32(q.K))
		b = appendI32(b, int32(q.New.Edge))
		b = appendF64(b, q.New.Frac)
	}
	b = appendU32(b, uint32(len(u.Edges)))
	for _, e := range u.Edges {
		b = appendI32(b, int32(e.Edge))
		b = appendF64(b, e.NewW)
	}
	// Topology trails the record: version-1 records written before live
	// network editing existed have no section at all.
	return appendTopology(b, u.Topology)
}

// Encoded sizes of one object, query, edge and topology entry: what
// appendUpdates writes per element, and the least a count can claim.
const (
	objBytes  = 4 + 1 + 4 + 8
	qryBytes  = 4 + 1 + 4 + 4 + 8
	edgeBytes = 4 + 8
	topoBytes = 1 + 4 + 4 + 4 + 8
)

// v1OldBytes is what a version-1 object entry holds beyond objBytes: the
// position the object left, which the engine takes from its own object
// table.
const v1OldBytes = 4 + 8

// readUpdates decodes what appendUpdates wrote into a segment of version v;
// the caller checks c.Done. A version-1 record is read by the same code: its
// object entries carry v1OldBytes more, which are skipped, and it may end
// before the topology section.
func readUpdates(c *frame.Cursor, v uint32) core.Updates {
	var u core.Updates
	v1 := v == 1
	entry := objBytes
	if v1 {
		entry += v1OldBytes
	}
	if n := c.Count(entry); n > 0 {
		u.Objects = make([]core.ObjectUpdate, n)
		for i := range u.Objects {
			o := &u.Objects[i]
			o.ID = roadnet.ObjectID(c.I32())
			fl := c.Byte()
			o.Insert = fl&flagInsert != 0
			o.Delete = fl&flagDelete != 0
			if v1 {
				c.Bytes(v1OldBytes)
			}
			o.New.Edge = graph.EdgeID(c.I32())
			o.New.Frac = c.F64()
		}
	}
	if n := c.Count(qryBytes); n > 0 {
		u.Queries = make([]core.QueryUpdate, n)
		for i := range u.Queries {
			q := &u.Queries[i]
			q.ID = core.QueryID(c.I32())
			fl := c.Byte()
			q.Insert = fl&flagInsert != 0
			q.Delete = fl&flagDelete != 0
			q.K = int(c.I32())
			q.New.Edge = graph.EdgeID(c.I32())
			q.New.Frac = c.F64()
		}
	}
	if n := c.Count(edgeBytes); n > 0 {
		u.Edges = make([]core.EdgeUpdate, n)
		for i := range u.Edges {
			u.Edges[i] = core.EdgeUpdate{Edge: graph.EdgeID(c.I32()), NewW: c.F64()}
		}
	}
	if !v1 || c.Len() > 0 {
		u.Topology = readTopology(c)
	}
	return u
}

// readTopology decodes a counted topology op list (shared by batch
// records and checkpoints).
func readTopology(c *frame.Cursor) []core.TopologyUpdate {
	n := c.Count(topoBytes)
	if n == 0 {
		return nil
	}
	ops := make([]core.TopologyUpdate, n)
	for i := range ops {
		op := c.Byte()
		if op > byte(core.TopoRemove) {
			c.Fail(fmt.Errorf("wal: unknown topology op %d", op))
		}
		ops[i] = core.TopologyUpdate{
			Op:   core.TopologyOp(op),
			Edge: graph.EdgeID(c.I32()),
			U:    graph.NodeID(c.I32()),
			V:    graph.NodeID(c.I32()),
			W:    c.F64(),
		}
	}
	return ops
}

// appendTopology is readTopology's writer.
func appendTopology(b []byte, ops []core.TopologyUpdate) []byte {
	b = appendU32(b, uint32(len(ops)))
	for _, tp := range ops {
		b = append(b, byte(tp.Op))
		b = appendI32(b, int32(tp.Edge))
		b = appendI32(b, int32(tp.U))
		b = appendI32(b, int32(tp.V))
		b = appendF64(b, tp.W)
	}
	return b
}

// record is one decoded log record; which fields are set follows typ.
type record struct {
	typ     byte
	seq     uint64       // recBatch
	updates core.Updates // recBatch, recPending
	tick    TickRecord   // recTick
}

// decodeRecord parses one verified frame payload of a segment of version v.
func decodeRecord(payload []byte, v uint32) (record, error) {
	c := frame.NewCursor(payload)
	r := record{typ: c.Byte()}
	switch r.typ {
	case recBatch:
		r.seq = c.U64()
		r.updates = readUpdates(&c, v)
	case recTick:
		r.tick = TickRecord{Epoch: c.U64(), Stamp: c.U64(), SnapCRC: c.U32()}
	case recPending:
		r.updates = readUpdates(&c, v)
	default:
		return r, fmt.Errorf("wal: unknown record type %d", r.typ)
	}
	if err := c.Done(); err != nil {
		return r, fmt.Errorf("wal: record type %d: %w", r.typ, err)
	}
	return r, nil
}

// recordCap is the exact framed size of a batch record holding u (a
// pending record is eight bytes shorter), so encoding never regrows.
func recordCap(u core.Updates) int {
	return frameLen + 1 + 8 + 4*4 + len(u.Objects)*objBytes + len(u.Queries)*qryBytes +
		len(u.Edges)*edgeBytes + len(u.Topology)*topoBytes
}

// encodeBatch builds a framed recBatch record.
func encodeBatch(seq uint64, u core.Updates) []byte {
	return frame.Append(make([]byte, 0, recordCap(u)), func(p []byte) []byte {
		p = append(p, recBatch)
		p = appendU64(p, seq)
		return appendUpdates(p, u)
	})
}

// encodeTick builds a framed recTick record. snapCRC == 0 means
// "skip verification" (crc32 can legitimately be 0, but treating that one
// value as unverified only weakens one in 2^32 ticks).
func encodeTick(epoch, stamp uint64, snapCRC uint32) []byte {
	return frame.Append(make([]byte, 0, frameLen+21), func(p []byte) []byte {
		p = append(p, recTick)
		p = appendU64(p, epoch)
		p = appendU64(p, stamp)
		return appendU32(p, snapCRC)
	})
}

// encodePending builds a framed recPending record.
func encodePending(u core.Updates) []byte {
	return frame.Append(make([]byte, 0, recordCap(u)), func(p []byte) []byte {
		return appendUpdates(append(p, recPending), u)
	})
}
