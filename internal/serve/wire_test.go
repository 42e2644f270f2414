package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadknn"
	"roadknn/internal/frame"
)

// postRaw sends body with an explicit Content-Type and returns the status.
func postRaw(t *testing.T, url, contentType string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeBinaryIngest round-trips a binary batch through POST
// /v1/updates end to end: encoded client-side, decoded and validated
// server-side, applied at the next tick, visible in the snapshot.
func TestServeBinaryIngest(t *testing.T) {
	s, hs := newTestServer(t)
	req := &batchRequest{
		Objects: []objectReport{
			{ID: 1, Edge: 0, Frac: 0.5},
			{ID: 2, Edge: 1, Frac: 0.25},
		},
		Queries: []queryReport{{ID: 7, K: 2, Edge: 0, Frac: 0.125}},
		Edges:   []edgeReport{{Edge: 3, W: 2.5}},
	}
	for _, ct := range []string{"application/x-roadknn-updates", "application/octet-stream"} {
		if code := postRaw(t, hs.URL+"/v1/updates", ct, EncodeWire(req)); code != http.StatusOK {
			t.Fatalf("%s ingest status %d", ct, code)
		}
	}
	s.Tick()
	status, one := get(t, hs.URL+"/v1/result?query=7")
	if status != http.StatusOK {
		t.Fatalf("result status %d", status)
	}
	if n := len(one["result"].(map[string]any)["neighbors"].([]any)); n != 2 {
		t.Fatalf("query served %d neighbors, want 2", n)
	}

	// Multiple frames in one body accumulate into one batch.
	body := AppendWireHeader(nil)
	body = AppendWireBatch(body, &batchRequest{Objects: []objectReport{{ID: 3, Edge: 2, Frac: 0.75}}})
	body = AppendWireBatch(body, &batchRequest{Objects: []objectReport{{ID: 4, Edge: 4, Frac: 0.5}}})
	if code := postRaw(t, hs.URL+"/v1/updates", "application/x-roadknn-updates", body); code != http.StatusOK {
		t.Fatalf("multi-frame ingest rejected")
	}
	s.Tick()
}

// TestServeNDJSONIngest feeds reports as newline-delimited JSON records.
func TestServeNDJSONIngest(t *testing.T) {
	s, hs := newTestServer(t)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, &batchRequest{
		Objects: []objectReport{{ID: 1, Edge: 0, Frac: 0.5}, {ID: 2, Edge: 1, Frac: 0.5}},
		Queries: []queryReport{{ID: 9, K: 1, Edge: 2, Frac: 0.5}},
		Edges:   []edgeReport{{Edge: 0, W: 1.5}},
	}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if code := postRaw(t, hs.URL+"/v1/updates", "application/x-ndjson", buf.Bytes()); code != http.StatusOK {
		t.Fatalf("ndjson ingest status %d", code)
	}
	s.Tick()
	if status, _ := get(t, hs.URL+"/v1/result?query=9"); status != http.StatusOK {
		t.Fatalf("query from NDJSON batch not served: %d", status)
	}

	// Records with zero or two bodies are rejected whole.
	for _, bad := range []string{
		`{}`,
		`{"obj":{"id":1,"edge":0,"frac":0.5},"edge":{"edge":0,"w":1}}`,
		`{"unknown":{}}`,
		``,
	} {
		if code := postRaw(t, hs.URL+"/v1/updates", "application/x-ndjson", []byte(bad)); code != http.StatusBadRequest {
			t.Errorf("NDJSON %q accepted with status %d, want 400", bad, code)
		}
	}
}

// TestServeContentNegotiation: unknown media types answer 415, not 400 —
// and parameters on known types are tolerated.
func TestServeContentNegotiation(t *testing.T) {
	_, hs := newTestServer(t)
	ok := `{"objects":[{"id":1,"edge":0,"frac":0.5}]}`
	if code := postRaw(t, hs.URL+"/v1/updates", "application/json; charset=utf-8", []byte(ok)); code != http.StatusOK {
		t.Fatalf("json with charset parameter rejected: %d", code)
	}
	for _, ct := range []string{"text/plain", "application/xml", "multipart/form-data; boundary=x"} {
		if code := postRaw(t, hs.URL+"/v1/updates", ct, []byte(ok)); code != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q got status %d, want 415", ct, code)
		}
	}
	if code := postRaw(t, hs.URL+"/v1/updates", "not a media type;;;", []byte(ok)); code != http.StatusUnsupportedMediaType {
		t.Errorf("malformed Content-Type got %d, want 415", code)
	}
}

// TestServeBinaryIngestLimits: an oversized binary body answers 413 (the
// shared MaxBodyBytes cap), and a frame whose declared length exceeds the
// per-frame cap is rejected without a proportional allocation.
func TestServeBinaryIngestLimits(t *testing.T) {
	net := roadknn.GenerateNetwork(100, 3)
	s := New(roadknn.NewIMAWith(net, roadknn.Options{Serving: true}), Config{MaxBodyBytes: 128})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	hs := ts.URL

	big := &batchRequest{}
	for i := 0; i < 64; i++ {
		big.Objects = append(big.Objects, objectReport{ID: int64(i), Edge: 0, Frac: 0.5})
	}
	if code := postRaw(t, hs+"/v1/updates", "application/x-roadknn-updates", EncodeWire(big)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary batch got status %d, want 413", code)
	}

	// A frame header claiming more than the per-frame cap: rejected as a
	// bad request (the body itself is small, so it is not a 413).
	body := AppendWireHeader(nil)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], wireMaxFrame+1)
	body = append(body, hdr[:]...)
	if code := postRaw(t, hs+"/v1/updates", "application/x-roadknn-updates", body); code != http.StatusBadRequest {
		t.Fatalf("over-cap frame length got status %d, want 400", code)
	}
}

// TestServeBinaryIngestMalformed: every corruption of a valid stream is a
// clean 400 — and a structurally valid frame with out-of-range values is
// rejected by the shared batch validation, so a binary client cannot
// smuggle what a JSON client could not.
func TestServeBinaryIngestMalformed(t *testing.T) {
	s, hs := newTestServer(t)
	valid := EncodeWire(&batchRequest{Objects: []objectReport{{ID: 1, Edge: 0, Frac: 0.5}}})

	corrupt := map[string][]byte{
		"empty body":      {},
		"bad magic":       append([]byte("XXXX"), valid[4:]...),
		"bad version":     append(AppendWireHeader(nil)[:4], 9, 0, 0, 0),
		"header only":     valid[:wireHdrLen],
		"torn frame":      valid[:len(valid)-3],
		"flipped payload": flipByte(valid, len(valid)-1),
		"flipped crc":     flipByte(valid, wireHdrLen+4),
		"trailing bytes":  append(append([]byte{}, valid...), 0xFF),
	}
	// Unknown frame type: re-frame a payload starting with type 9.
	{
		body := AppendWireHeader(nil)
		bad := AppendWireBatch(nil, &batchRequest{})
		bad[8] = 9 // payload[0] is the frame type
		binary.LittleEndian.PutUint32(bad[4:8], frame.Checksum(bad[8:]))
		corrupt["unknown frame type"] = append(body, bad...)
	}
	for name, body := range corrupt {
		if code := postRaw(t, hs.URL+"/v1/updates", "application/x-roadknn-updates", body); code != http.StatusBadRequest {
			t.Errorf("%s: got status %d, want 400", name, code)
		}
	}

	// Structurally valid, semantically invalid: shared validation applies.
	for name, req := range map[string]*batchRequest{
		"edge out of range": {Objects: []objectReport{{ID: 1, Edge: 9999, Frac: 0.5}}},
		"frac out of range": {Objects: []objectReport{{ID: 1, Edge: 0, Frac: 1.5}}},
		"nan frac":          {Objects: []objectReport{{ID: 1, Edge: 0, Frac: math.NaN()}}},
		"install without k": {Queries: []queryReport{{ID: 1, Edge: 0, Frac: 0.5}}},
		"bad edge weight":   {Edges: []edgeReport{{Edge: 0, W: -1}}},
	} {
		if code := postRaw(t, hs.URL+"/v1/updates", "application/x-roadknn-updates", EncodeWire(req)); code != http.StatusBadRequest {
			t.Errorf("%s: got status %d, want 400", name, code)
		}
	}
	// The stepper survived all of it.
	s.Tick()
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xFF
	return out
}

// FuzzDecodeUpdates throws arbitrary bytes at the binary stream decoder.
// Whatever the input: no panic, no over-read past the framed lengths, and
// every successful decode must re-encode to a stream that decodes to the
// identical batch (the codec is canonical).
func FuzzDecodeUpdates(f *testing.F) {
	for _, seed := range wireSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := getWireScratch(bytes.NewReader(data))
		err := sc.decodeWire()
		if err != nil {
			putWireScratch(sc)
			return
		}
		// Round-trip: re-encode the decoded batch as one frame and decode
		// it again; the reports must match bit for bit.
		re := EncodeWire(&sc.req)
		sc2 := getWireScratch(bytes.NewReader(re))
		if err := sc2.decodeWire(); err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if !batchesEqual(&sc.req, &sc2.req) {
			t.Fatalf("round trip changed the batch:\n was %+v\n now %+v", sc.req, sc2.req)
		}
		putWireScratch(sc2)
		putWireScratch(sc)
	})
}

// wireSeeds is the binary decoder's seed corpus: random batches as one
// frame and as two, a bare header, a truncated header, an empty body, a
// torn frame and a flipped byte.
func wireSeeds() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte
	for i := 0; i < 8; i++ {
		req := randomBatch(rng, 1+i*3)
		seeds = append(seeds, EncodeWire(req))
		body := AppendWireHeader(nil)
		body = AppendWireBatch(body, req)
		body = AppendWireBatch(body, randomBatch(rng, 2))
		seeds = append(seeds, body)
	}
	seeds = append(seeds, AppendWireHeader(nil), []byte("RKUP"), []byte{})
	valid := EncodeWire(randomBatch(rng, 5))
	return append(seeds, valid[:len(valid)-2], flipByte(valid, len(valid)/2))
}

// randomBatch builds an arbitrary (not necessarily valid) batch — the
// codec layer is value-agnostic; validation happens after decoding.
func randomBatch(rng *rand.Rand, n int) *batchRequest {
	req := &batchRequest{}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 3:
			tp := topoReport{Op: topoOpAdd, U: rng.Int31(), V: rng.Int31(), W: rng.NormFloat64()}
			if rng.Intn(2) == 0 {
				tp.Op = topoOpRemove
			}
			if rng.Intn(2) == 0 {
				e := rng.Int31() // non-negative: -1 is the no-assertion sentinel
				tp.Edge = &e
			}
			req.Topology = append(req.Topology, tp)
		case 0:
			req.Objects = append(req.Objects, objectReport{
				ID: rng.Int63() - rng.Int63(), Edge: int32(rng.Int31()), Frac: rng.NormFloat64(), Delete: rng.Intn(2) == 0,
			})
		case 1:
			req.Queries = append(req.Queries, queryReport{
				ID: int32(rng.Int31()), K: rng.Intn(64), Edge: int32(rng.Int31()), Frac: rng.Float64(), End: rng.Intn(2) == 0,
			})
		default:
			req.Edges = append(req.Edges, edgeReport{Edge: int32(rng.Int31()), W: rng.ExpFloat64()})
		}
	}
	return req
}

// batchesEqual compares two batches with float equality by bit pattern
// (NaN payloads must survive the codec unchanged).
func batchesEqual(a, b *batchRequest) bool {
	if len(a.Topology) != len(b.Topology) ||
		len(a.Objects) != len(b.Objects) || len(a.Queries) != len(b.Queries) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Topology {
		x, y := a.Topology[i], b.Topology[i]
		if x.Op != y.Op || x.U != y.U || x.V != y.V ||
			math.Float64bits(x.W) != math.Float64bits(y.W) {
			return false
		}
		if (x.Edge == nil) != (y.Edge == nil) || (x.Edge != nil && *x.Edge != *y.Edge) {
			return false
		}
	}
	for i := range a.Objects {
		x, y := a.Objects[i], b.Objects[i]
		if x.ID != y.ID || x.Edge != y.Edge || x.Delete != y.Delete ||
			math.Float64bits(x.Frac) != math.Float64bits(y.Frac) {
			return false
		}
	}
	for i := range a.Queries {
		x, y := a.Queries[i], b.Queries[i]
		if x.ID != y.ID || x.K != y.K || x.Edge != y.Edge || x.End != y.End ||
			math.Float64bits(x.Frac) != math.Float64bits(y.Frac) {
			return false
		}
	}
	for i := range a.Edges {
		x, y := a.Edges[i], b.Edges[i]
		if x.Edge != y.Edge || math.Float64bits(x.W) != math.Float64bits(y.W) {
			return false
		}
	}
	return true
}

// TestServeRejectsUnrepresentableIDAndK: object ids are 64-bit and a JSON k
// is a Go int on the wire, but both are int32 in the engine and the WAL.
// Admission used to convert silently: object 2^32+5 aliased object 5, and an
// install with k = 2^32+1 ran live with that k while the WAL logged k = 1, so
// recovery failed its tick CRC. All three encodings reach the one check.
func TestServeRejectsUnrepresentableIDAndK(t *testing.T) {
	s, hs := newTestServer(t)
	url := hs.URL + "/v1/updates"
	home := roadknn.Position{Edge: 0, Frac: 0.5}
	post(t, url, `{"objects":[{"id":5,"edge":0,"frac":0.5}]}`)
	s.Tick()

	bad := []*batchRequest{
		{Objects: []objectReport{{ID: 1<<32 + 5, Edge: 1, Frac: 0.25}}},
		{Objects: []objectReport{{ID: 1<<32 + 5, Delete: true}}},
		{Objects: []objectReport{{ID: math.MinInt32 - 1, Edge: 1, Frac: 0.25}}},
		{Queries: []queryReport{{ID: 1, K: 1<<32 + 1, Edge: 0, Frac: 0.5}}},
		{Queries: []queryReport{{ID: 1, K: math.MaxInt32 + 1, Edge: 0, Frac: 0.5}}},
	}
	for i, req := range bad {
		js, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var nd bytes.Buffer
		if err := WriteNDJSON(&nd, req); err != nil {
			t.Fatal(err)
		}
		bodies := map[string][]byte{"application/json": js, "application/x-ndjson": nd.Bytes()}
		if len(req.Queries) == 0 { // the binary form carries k as an int32: nothing to reject
			bodies["application/x-roadknn-updates"] = EncodeWire(req)
		}
		for ct, body := range bodies {
			if code := postRaw(t, url, ct, body); code != http.StatusBadRequest {
				t.Errorf("batch %d as %s: status %d, want 400", i, ct, code)
			}
		}
	}
	s.Tick()
	if pos, ok := s.eng.Network().ObjectPos(5); !ok || pos != home {
		t.Fatalf("object 5 is at %+v (%v) after the rejected batches, want %+v", pos, ok, home)
	}
	if n := s.eng.Snapshot().Len(); n != 0 {
		t.Fatalf("%d queries installed by rejected batches", n)
	}
}
