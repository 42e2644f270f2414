package wal

import (
	"fmt"
	"io"

	"roadknn/internal/core"
	"roadknn/internal/frame"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// A Checkpoint is everything needed to rebuild the engine without the log:
// the applied state (object positions, registered queries, every live
// edge's weight) as of one fully applied tick, plus the engine's
// serialized result snapshot at that tick for verification — recovery
// rebuilds from the inputs and checks it arrived at the same published
// bytes.
type Checkpoint struct {
	Epoch uint64 // snapshot epoch at checkpoint time
	Stamp uint64 // timestamp (== batch sequence of the last applied batch)

	Objects []ObjectState
	Queries []QueryState
	Edges   []EdgeState

	// Topology is the ordered log of every edge insertion/removal applied
	// since the network file was loaded. Recovery replays it first — before
	// object positions, query registrations and edge weights, all of
	// which may reference edge ids that only exist after the edits (the
	// freelist reuses ids deterministically, so replaying the ops in order
	// reconstructs the exact edge set). Insertions carry the id that was
	// assigned, so replay divergence is detected instead of silently
	// corrupting the id space.
	Topology []core.TopologyUpdate

	// Snapshot is the engine's result snapshot in core's canonical binary
	// encoding, used to verify the rebuilt engine bit-for-bit.
	Snapshot []byte
}

// ObjectState is one monitored object's applied position.
type ObjectState struct {
	ID  roadnet.ObjectID
	Pos roadnet.Position
}

// QueryState is one registered query's applied position and k.
type QueryState struct {
	ID  int32
	K   int32
	Pos roadnet.Position
}

// EdgeState is one live edge's weight. A server writes every live edge;
// images written before that list only the edges whose weight was
// reported since startup. Both install: recovery sets each listed weight
// after the topology ops, and an unlisted edge keeps the weight the
// network file or its insertion gave it.
type EdgeState struct {
	Edge graph.EdgeID
	W    float64
}

// A checkpoint file is a header plus exactly one frame (internal/frame):
// "RKCP" | version, then the body below under one length and checksum.
//
//	u64 epoch | u64 stamp
//	u32 nObjects | per object: i32 id | i32 edge | f64 frac
//	u32 nQueries | per query:  i32 id | i32 k | i32 edge | f64 frac
//	u32 nEdges   | per edge:   i32 edge | f64 w
//	u32 len(snapshot) | snapshot
//	u32 nTopology | ops as in a batch record   (v2 on; v1 files end above)
const (
	ckptMagic   = "RKCP"
	ckptVersion = 2
)

// encodeCheckpoint serializes c as one self-verifying file image.
func encodeCheckpoint(c *Checkpoint) []byte {
	out := frame.AppendHeader(make([]byte, 0, 128+len(c.Snapshot)), ckptMagic, ckptVersion)
	return frame.Append(out, func(body []byte) []byte {
		body = appendU64(body, c.Epoch)
		body = appendU64(body, c.Stamp)
		body = appendU32(body, uint32(len(c.Objects)))
		for _, o := range c.Objects {
			body = appendI32(body, int32(o.ID))
			body = appendI32(body, int32(o.Pos.Edge))
			body = appendF64(body, o.Pos.Frac)
		}
		body = appendU32(body, uint32(len(c.Queries)))
		for _, q := range c.Queries {
			body = appendI32(body, q.ID)
			body = appendI32(body, q.K)
			body = appendI32(body, int32(q.Pos.Edge))
			body = appendF64(body, q.Pos.Frac)
		}
		body = appendU32(body, uint32(len(c.Edges)))
		for _, e := range c.Edges {
			body = appendI32(body, int32(e.Edge))
			body = appendF64(body, e.W)
		}
		body = appendU32(body, uint32(len(c.Snapshot)))
		body = append(body, c.Snapshot...)
		return appendTopology(body, c.Topology)
	})
}

// decodeCheckpoint parses and verifies a checkpoint file image.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	ver, err := frame.ParseHeader(data, ckptMagic)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if ver < 1 || ver > ckptVersion {
		return nil, fmt.Errorf("wal: unsupported checkpoint version %d", ver)
	}
	body, rest, err := frame.Next(data[headerLen:], maxRecordLen)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint body: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wal: %d bytes after the checkpoint body", len(rest))
	}

	d := frame.NewCursor(body)
	c := &Checkpoint{Epoch: d.U64(), Stamp: d.U64()}
	if n := d.Count(16); n > 0 {
		c.Objects = make([]ObjectState, n)
		for i := range c.Objects {
			o := &c.Objects[i]
			o.ID = roadnet.ObjectID(d.I32())
			o.Pos.Edge = graph.EdgeID(d.I32())
			o.Pos.Frac = d.F64()
		}
	}
	if n := d.Count(20); n > 0 {
		c.Queries = make([]QueryState, n)
		for i := range c.Queries {
			q := &c.Queries[i]
			q.ID = d.I32()
			q.K = d.I32()
			q.Pos.Edge = graph.EdgeID(d.I32())
			q.Pos.Frac = d.F64()
		}
	}
	if n := d.Count(12); n > 0 {
		c.Edges = make([]EdgeState, n)
		for i := range c.Edges {
			c.Edges[i] = EdgeState{Edge: graph.EdgeID(d.I32()), W: d.F64()}
		}
	}
	c.Snapshot = append([]byte(nil), d.Bytes(d.Count(1))...)
	if ver >= 2 {
		c.Topology = readTopology(&d)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("wal: checkpoint body: %w", err)
	}
	return c, nil
}

// readCheckpoint loads and verifies the named checkpoint file.
func readCheckpoint(fs FS, name string) (*Checkpoint, error) {
	r, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}
