package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"roadknn/internal/core"
	"roadknn/internal/frame"
)

// This file implements the bulk-ingestion wire formats of POST /v1/updates.
// Three content types are negotiated (see Server.handleUpdates):
//
//   - application/json: the original batchRequest document;
//   - application/x-ndjson: one JSON record per line (any whitespace
//     separates records), each {"top":{...}}, {"obj":{...}}, {"qry":{...}}
//     or {"edge":{...}} — append-friendly for producers that emit reports
//     as they happen;
//   - application/x-roadknn-updates (or application/octet-stream): the
//     binary stream below — the wire-speed path.
//
// The two JSON forms are decoded by the cursor in wirejson.go.
//
// Binary stream layout. A body is a frame stream (see internal/frame)
// under the header "RKUP" | version 2 (v1 bodies still decode), holding one
// or more frames with payload[0] the frame type. Type 1 (wireBatch)
// carries one update batch:
//
//	u8 type | u32 nObjects | per object: i64 id | u8 flags (1 = delete) |
//	                                     i32 edge | f64 frac
//	        | u32 nQueries | per query:  i32 id | u8 flags (1 = end) |
//	                                     i32 k | i32 edge | f64 frac
//	        | u32 nEdges   | per edge:   i32 edge | f64 w
//	        | u32 nTopo    | per op:     u8 op (0 = add, 1 = remove) |
//	                                     i32 edge (-1 = unasserted) |
//	                                     i32 u | i32 v | f64 w
//
// The topology section trails the frame so v1 frames (which end after the
// edges) still decode; like the JSON form, topology ops apply before every
// other report in the batch regardless of wire order.
//
// All integers are little-endian. Frames in one body accumulate into a
// single logical batch
// (decoded into reused buffers, validated and admitted as one), so a
// producer can stream a large tick's worth of reports without buffering
// them client-side.

const (
	wireMagic   = "RKUP"
	wireVersion = 2 // v2 appended the topology section; v1 bodies still decode
	wireHdrLen  = frame.HeaderLen
	wireBatch   = 1 // frame type: one update batch

	// wireObjBytes/wireQryBytes/wireEdgeBytes/wireTopoBytes are the encoded
	// sizes of one report, used for frame sizing and count sanity checks.
	wireObjBytes  = 8 + 1 + 4 + 8
	wireQryBytes  = 4 + 1 + 4 + 4 + 8
	wireEdgeBytes = 4 + 8
	wireTopoBytes = 1 + 4 + 4 + 4 + 8

	// wireMaxFrame bounds one frame's declared payload length so a corrupt
	// length field cannot force a huge allocation before the CRC check.
	wireMaxFrame = 1 << 26
)

// wireFlagDrop marks an object report as a delete / a query report as an
// end, mirroring the boolean in the JSON form.
const wireFlagDrop = 1

// ---- encoding (client side: tests, benchmarks, cmd/monitor's feeder) ----

// AppendWireHeader appends the binary stream header to buf.
func AppendWireHeader(buf []byte) []byte {
	return frame.AppendHeader(buf, wireMagic, wireVersion)
}

// AppendWireBatch appends req as one framed binary batch to buf.
func AppendWireBatch(buf []byte, req *batchRequest) []byte {
	return frame.Append(buf, func(buf []byte) []byte { return appendWirePayload(buf, req) })
}

// appendWirePayload appends the wireBatch payload of req (layout above).
func appendWirePayload(buf []byte, req *batchRequest) []byte {
	buf = append(buf, wireBatch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Objects)))
	for _, o := range req.Objects {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.ID))
		var fl byte
		if o.Delete {
			fl |= wireFlagDrop
		}
		buf = append(buf, fl)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Edge))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Frac))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Queries)))
	for _, q := range req.Queries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(q.ID))
		var fl byte
		if q.End {
			fl |= wireFlagDrop
		}
		buf = append(buf, fl)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(q.K)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(q.Edge))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.Frac))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Edges)))
	for _, e := range req.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Edge))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Topology)))
	for _, tp := range req.Topology {
		// An op string other than add/remove encodes as 255, which the
		// decoder rejects — a client bug must not silently become an add.
		op := byte(255)
		switch tp.Op {
		case topoOpAdd:
			op = 0
		case topoOpRemove:
			op = 1
		}
		buf = append(buf, op)
		edge := int32(-1)
		if tp.Edge != nil {
			edge = *tp.Edge
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(edge))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(tp.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(tp.V))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tp.W))
	}
	return buf
}

// EncodeWire encodes req as a complete binary body (header + one frame) —
// the convenience form for clients that assemble a batch in memory.
func EncodeWire(req *batchRequest) []byte {
	return AppendWireBatch(AppendWireHeader(nil), req)
}

// WriteNDJSON writes req as NDJSON records, one report per line. Topology
// ops lead, matching the order they apply in.
func WriteNDJSON(w io.Writer, req *batchRequest) error {
	enc := json.NewEncoder(w)
	for i := range req.Topology {
		if err := enc.Encode(ndjsonRecord{Top: &req.Topology[i]}); err != nil {
			return err
		}
	}
	for i := range req.Objects {
		if err := enc.Encode(ndjsonRecord{Obj: &req.Objects[i]}); err != nil {
			return err
		}
	}
	for i := range req.Queries {
		if err := enc.Encode(ndjsonRecord{Qry: &req.Queries[i]}); err != nil {
			return err
		}
	}
	for i := range req.Edges {
		if err := enc.Encode(ndjsonRecord{Edge: &req.Edges[i]}); err != nil {
			return err
		}
	}
	return nil
}

// ndjsonRecord is one NDJSON line: exactly one field set.
type ndjsonRecord struct {
	Top  *topoReport   `json:"top,omitempty"`
	Obj  *objectReport `json:"obj,omitempty"`
	Qry  *queryReport  `json:"qry,omitempty"`
	Edge *edgeReport   `json:"edge,omitempty"`
}

// ---- decoding (server side) ----

// wireScratch is the per-request decode state, pooled so sustained
// ingestion reuses the frame buffer, the body buffer and the report slices
// instead of allocating per request.
type wireScratch struct {
	req  batchRequest
	br   *bufio.Reader
	fr   *frame.Reader // over br; owns the reused frame payload buffer
	body bytes.Buffer  // a whole JSON or NDJSON body (wirejson.go)
}

var wirePool = sync.Pool{New: func() any { return &wireScratch{} }}

// getWireScratch leases a scratch reading r.
func getWireScratch(r io.Reader) *wireScratch {
	sc := wirePool.Get().(*wireScratch)
	sc.reset(r)
	return sc
}

// reset points sc at r with an empty (capacity-retaining) batch.
func (sc *wireScratch) reset(r io.Reader) {
	sc.req.Topology = sc.req.Topology[:0]
	sc.req.Objects = sc.req.Objects[:0]
	sc.req.Queries = sc.req.Queries[:0]
	sc.req.Edges = sc.req.Edges[:0]
	if sc.br == nil {
		sc.br = bufio.NewReaderSize(r, 32<<10)
		sc.fr = frame.NewReader(sc.br, wireMaxFrame)
	} else {
		sc.br.Reset(r)
	}
}

// putWireScratch returns a scratch to the pool. The caller must be done
// with sc.req — its slices are reused by the next request.
func putWireScratch(sc *wireScratch) {
	sc.br.Reset(nil) // drop the request body reference
	wirePool.Put(sc)
}

// readBody reads the rest of the body into sc.body. A body that overruns
// the size cap surfaces as the *http.MaxBytesError the reader returned.
func (sc *wireScratch) readBody() error {
	sc.body.Reset()
	_, err := sc.body.ReadFrom(sc.br)
	return err
}

// decodeWire reads a complete binary update stream into sc.req. It never
// over-reads: exactly the framed bytes are consumed, and malformed input
// (bad magic, length overruns, CRC mismatches, truncated frames, trailing
// garbage) returns an error without panicking or allocating proportionally
// to a corrupt length field. A body that overruns the size cap surfaces as
// the *http.MaxBytesError the reader returned (the handler answers 413).
func (sc *wireScratch) decodeWire() error {
	v, err := sc.fr.Header(wireMagic)
	if err != nil {
		return fmt.Errorf("stream header: %w", err)
	}
	if v < 1 || v > wireVersion {
		return fmt.Errorf("unsupported stream version %d", v)
	}
	for frames := 0; ; frames++ {
		payload, err := sc.fr.Next()
		if err == io.EOF {
			if frames == 0 {
				return errors.New("empty stream: no frames after header")
			}
			return nil
		}
		if err != nil {
			return err
		}
		if err := sc.decodeFrame(payload); err != nil {
			return err
		}
	}
}

// decodeFrame appends one verified frame's reports to sc.req.
func (sc *wireScratch) decodeFrame(p []byte) error {
	d := frame.NewCursor(p)
	if t := d.Byte(); t != wireBatch {
		return fmt.Errorf("unknown frame type %d", t)
	}
	for i := d.Count(wireObjBytes); i > 0; i-- {
		var o objectReport
		o.ID = int64(d.U64())
		o.Delete = d.Byte()&wireFlagDrop != 0
		o.Edge = d.I32()
		o.Frac = d.F64()
		sc.req.Objects = append(sc.req.Objects, o)
	}
	for i := d.Count(wireQryBytes); i > 0; i-- {
		var q queryReport
		q.ID = d.I32()
		q.End = d.Byte()&wireFlagDrop != 0
		q.K = int(d.I32())
		q.Edge = d.I32()
		q.Frac = d.F64()
		sc.req.Queries = append(sc.req.Queries, q)
	}
	for i := d.Count(wireEdgeBytes); i > 0; i-- {
		sc.req.Edges = append(sc.req.Edges, edgeReport{Edge: d.I32(), W: d.F64()})
	}
	// Topology trails the frame; v1 frames end after the edges.
	if d.Len() > 0 {
		for i := d.Count(wireTopoBytes); i > 0; i-- {
			var tp topoReport
			switch op := d.Byte(); op {
			case 0:
				tp.Op = topoOpAdd
			case 1:
				tp.Op = topoOpRemove
			default:
				return fmt.Errorf("unknown topology op %d", op)
			}
			if e := d.I32(); e >= 0 {
				tp.Edge = &e
			}
			tp.U = d.I32()
			tp.V = d.I32()
			tp.W = d.F64()
			sc.req.Topology = append(sc.req.Topology, tp)
		}
	}
	return d.Done()
}

// ---- bench bridge ----

// EncodeUpdates renders one engine update batch in the named wire encoding
// ("json", "ndjson" or "binary") — the client half of the ingestion
// benchmark (internal/workload) and of binary feed tools.
func EncodeUpdates(encoding string, u core.Updates) ([]byte, error) {
	req := &batchRequest{}
	for _, tp := range u.Topology {
		r := topoReport{Op: topoOpAdd, U: int32(tp.U), V: int32(tp.V), W: tp.W}
		if tp.Op == core.TopoRemove {
			r.Op = topoOpRemove
		}
		if tp.Edge >= 0 {
			id := int32(tp.Edge)
			r.Edge = &id
		}
		req.Topology = append(req.Topology, r)
	}
	for _, o := range u.Objects {
		if o.Delete {
			req.Objects = append(req.Objects, objectReport{ID: int64(o.ID), Delete: true})
			continue
		}
		req.Objects = append(req.Objects, objectReport{
			ID: int64(o.ID), Edge: int32(o.New.Edge), Frac: o.New.Frac,
		})
	}
	for _, q := range u.Queries {
		if q.Delete {
			req.Queries = append(req.Queries, queryReport{ID: int32(q.ID), End: true})
			continue
		}
		req.Queries = append(req.Queries, queryReport{
			ID: int32(q.ID), K: q.K, Edge: int32(q.New.Edge), Frac: q.New.Frac,
		})
	}
	for _, e := range u.Edges {
		req.Edges = append(req.Edges, edgeReport{Edge: int32(e.Edge), W: e.NewW})
	}
	switch encoding {
	case "json":
		return json.Marshal(req)
	case "ndjson":
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, req); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case "binary":
		return EncodeWire(req), nil
	}
	return nil, fmt.Errorf("serve: unknown wire encoding %q", encoding)
}

// DecodeUpdates runs the server-side decode path of POST /v1/updates on a
// complete body, returning the number of decoded reports. It calls the
// handler's decoders on the handler's pooled buffers — this is the
// function the ingestion benchmark times.
func DecodeUpdates(encoding string, body []byte) (int, error) {
	sc := getWireScratch(bytes.NewReader(body))
	defer putWireScratch(sc)
	var err error
	switch encoding {
	case "json":
		err = sc.decodeJSON()
	case "ndjson":
		err = sc.decodeNDJSON()
	case "binary":
		err = sc.decodeWire()
	default:
		return 0, fmt.Errorf("serve: unknown wire encoding %q", encoding)
	}
	if err != nil {
		return 0, err
	}
	return len(sc.req.Topology) + len(sc.req.Objects) + len(sc.req.Queries) + len(sc.req.Edges), nil
}
