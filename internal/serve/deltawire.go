package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"mime"
	"net/http"
	"slices"
	"strings"

	"roadknn"
	"roadknn/internal/core"
	"roadknn/internal/frame"
)

// This file implements the binary delta stream, content-negotiated on
// GET /v1/delta (one long-poll response) and GET /v1/deltas (a continuous
// stream) via
//
//	Accept: application/x-roadknn-delta   (or application/octet-stream)
//
// so follower replicas and high-volume external subscribers share one
// codec with the snapshot/checkpoint machinery instead of re-parsing
// JSON. The body is a frame stream (see internal/frame) under the header
// "RKDS" | version 1, with payload[0] the frame type:
//
//	1 delta:     payload[1:] is core.Delta.AppendBinary — one epoch's churn
//	2 resync:    payload[1:] is core.Snapshot.AppendBinary — a full re-seed
//	3 heartbeat: payload[1:] is u64 newest-epoch — emitted on long-poll
//	             timeouts so idle streams stay distinguishable from dead ones
//
// Semantics mirror the JSON endpoints exactly: a cursor advances by delta
// frames while the chain is reconstructible and is re-seeded by a resync
// frame when it is not.

const (
	deltaStreamMagic   = "RKDS"
	deltaStreamVersion = 1

	// DeltaStreamContentType negotiates the binary delta stream.
	DeltaStreamContentType = "application/x-roadknn-delta"

	// Frame types of the binary delta stream.
	DeltaFrameDelta     = 1
	DeltaFrameResync    = 2
	DeltaFrameHeartbeat = 3
)

// wantsBinaryDelta reports whether the request negotiates the binary
// delta stream. Only explicit Accept values switch the encoding; the
// default stays JSON.
func wantsBinaryDelta(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		if mt == DeltaStreamContentType || mt == "application/octet-stream" {
			return true
		}
	}
	return false
}

// binaryDeltas is the binary-frames encoder. ?queries= filters delta
// frames only; resync frames stay full snapshots — the binary snapshot
// encoding is canonical (CRC-verified against the engine's), so it is
// never subsetted.
var binaryDeltas = streamEncoding{
	contentType: DeltaStreamContentType,
	preamble:    frame.AppendHeader(nil, deltaStreamMagic, deltaStreamVersion),
	appendAdvance: func(b []byte, adv advance, only querySet) ([]byte, error) {
		switch {
		case adv.resync:
			return frame.Append(b, func(p []byte) []byte {
				return adv.head.AppendBinary(append(p, DeltaFrameResync))
			}), nil
		case adv.chain == nil:
			return appendHeartbeatFrame(b, adv.head.Epoch()), nil
		}
		// One growth to the chain's exact size: doubling from empty to a
		// high-churn epoch's delta would copy it several times per
		// subscriber per tick.
		chain, n := filterChain(adv.chain, only), 0
		for _, d := range chain {
			n += frame.Overhead + 1 + d.EncodedLen()
		}
		b = slices.Grow(b, n)
		for _, d := range chain {
			b = frame.Append(b, func(p []byte) []byte {
				return d.AppendBinary(append(p, DeltaFrameDelta))
			})
		}
		return b, nil
	},
}

func appendHeartbeatFrame(b []byte, epoch uint64) []byte {
	return frame.Append(b, func(p []byte) []byte {
		return binary.LittleEndian.AppendUint64(append(p, DeltaFrameHeartbeat), epoch)
	})
}

// DeltaStreamReader is the client side of the binary delta stream (tests,
// subscriber tooling). It verifies the header on the first Next call and
// every frame's CRC; any corruption is a hard error.
type DeltaStreamReader struct {
	fr   *frame.Reader
	seen bool
}

// NewDeltaStreamReader wraps the response body of a binary delta request.
func NewDeltaStreamReader(r io.Reader) *DeltaStreamReader {
	return &DeltaStreamReader{fr: frame.NewReader(r, wireMaxFrame)}
}

// Next returns the next frame's type byte and payload (valid until the
// following call). io.EOF marks a cleanly ended stream.
func (d *DeltaStreamReader) Next() (byte, []byte, error) {
	if !d.seen {
		v, err := d.fr.Header(deltaStreamMagic)
		if err != nil {
			return 0, nil, err
		}
		if v != deltaStreamVersion {
			return 0, nil, fmt.Errorf("serve: unsupported delta stream version %d", v)
		}
		d.seen = true
	}
	payload, err := d.fr.Next()
	if err != nil {
		return 0, nil, err
	}
	return payload[0], payload[1:], nil
}

// DecodeDeltaFrame parses one frame payload returned by Next into its
// typed form: a Delta, a resync Snapshot, or a heartbeat epoch.
func DecodeDeltaFrame(typ byte, payload []byte) (*roadknn.Delta, *roadknn.Snapshot, uint64, error) {
	switch typ {
	case DeltaFrameDelta:
		d, err := core.UnmarshalDelta(payload)
		return d, nil, 0, err
	case DeltaFrameResync:
		s, err := core.UnmarshalSnapshot(payload)
		return nil, s, 0, err
	case DeltaFrameHeartbeat:
		if len(payload) != 8 {
			return nil, nil, 0, fmt.Errorf("serve: bad heartbeat payload length %d", len(payload))
		}
		return nil, nil, binary.LittleEndian.Uint64(payload), nil
	}
	return nil, nil, 0, fmt.Errorf("serve: unknown delta frame type %d", typ)
}

// filterDelta restricts a delta to the subscribed queries. It returns d
// unchanged when only is nil, a shallow filtered copy when some rows
// match, and nil when none do — the caller skips the delta entirely (safe:
// a skipped epoch carries zero changes for every subscribed query, so the
// client's reconstruction is unaffected; its cursor still advances past
// it).
func filterDelta(d *roadknn.Delta, only querySet) *roadknn.Delta {
	if only == nil {
		return d
	}
	n := 0
	for i := range d.Queries {
		if _, ok := only[d.Queries[i].ID]; ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == len(d.Queries) {
		return d
	}
	fd := *d
	fd.Queries = make([]roadknn.QueryDelta, 0, n)
	for i := range d.Queries {
		if _, ok := only[d.Queries[i].ID]; ok {
			fd.Queries = append(fd.Queries, d.Queries[i])
		}
	}
	return &fd
}

// filterChain is filterDelta over a delta chain: the chain itself when only
// is nil, else the filtered deltas that have something for the subscriber.
func filterChain(chain []*roadknn.Delta, only querySet) []*roadknn.Delta {
	if only == nil {
		return chain
	}
	var out []*roadknn.Delta
	for _, d := range chain {
		if fd := filterDelta(d, only); fd != nil {
			out = append(out, fd)
		}
	}
	return out
}
