package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"roadknn"
	"roadknn/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden files from the current code")

// checkGolden holds got against testdata/golden/name byte for byte and
// returns the golden bytes, so the caller can also feed them to the read
// side. The files pin every wire format this package speaks: they are
// regenerated only by a deliberate format change (go test -update), never
// by a refactor.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: got %d bytes that differ from the %d golden bytes\n got %q\nwant %q", name, len(got), len(want), got, want)
	}
	return want
}

// newGoldenServer serves a four-edge square whose weights and positions
// are dyadic, so every distance in the goldens is exact in binary. The
// server is durable (an in-memory WAL) so the replication log is pinned
// from the same run.
func newGoldenServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	b := roadknn.NewNetworkBuilder()
	n0, n1, n2, n3 := b.AddNode(0, 0), b.AddNode(4, 0), b.AddNode(4, 8), b.AddNode(0, 8)
	b.AddEdge(n0, n1, 4)
	b.AddEdge(n1, n2, 8)
	b.AddEdge(n2, n3, 4)
	b.AddEdge(n3, n0, 8)
	eng := roadknn.NewIMAWith(b.Build(), roadknn.Options{Workers: 1, Serving: true, Deltas: true})
	l, rec, err := wal.Open(wal.NewMemFS(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{WAL: l})
	if _, err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// fetch GETs path and returns the whole body; accept, when set, negotiates
// the binary delta encoding.
func fetch(t *testing.T, url, accept string) []byte {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// openStream starts a streaming GET; the caller reads events off the
// returned reader as the server publishes them.
func openStream(t *testing.T, url, accept string) *bufio.Reader {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return bufio.NewReader(resp.Body)
}

// readSSE returns the raw text of the next server-sent event, blank
// terminator line included.
func readSSE(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	var ev []byte
	for {
		line, err := r.ReadBytes('\n')
		ev = append(ev, line...)
		if err != nil {
			t.Fatalf("stream ended inside an event: %v (read %q)", err, ev)
		}
		if len(line) == 1 {
			return ev
		}
	}
}

// readRawFrame returns the raw bytes of the next u32 len | u32 crc | payload
// frame, read without any of the package's own framing code.
func readRawFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	raw := make([]byte, 8)
	if _, err := io.ReadFull(r, raw); err != nil {
		t.Fatalf("frame header: %v", err)
	}
	raw = append(raw, make([]byte, binary.LittleEndian.Uint32(raw))...)
	if _, err := io.ReadFull(r, raw[8:]); err != nil {
		t.Fatalf("frame payload: %v", err)
	}
	return raw
}

// TestGoldenReadFormats pins what the read side puts on the wire — the
// RKDS binary stream (resync, delta and heartbeat frames, long-polled and
// streamed), the SSE text of /v1/deltas and /v1/stream, the JSON bodies of
// /v1/delta, /v1/snapshot and /v1/result, and the RKRL replication log —
// by driving one scripted run and holding every response against its
// golden file.
func TestGoldenReadFormats(t *testing.T) {
	s, hs := newGoldenServer(t)
	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.25},{"id":2,"edge":1,"frac":0.5},{"id":3,"edge":2,"frac":0.75}],
		"queries":[{"id":7,"k":2,"edge":0,"frac":0.5},{"id":9,"k":1,"edge":2,"frac":0.25}]
	}`)
	first := s.Tick()

	// Open every stream at the first epoch: each bootstraps with a resync.
	sseDeltas := openStream(t, hs.URL+"/v1/deltas", "")
	sseRows := openStream(t, hs.URL+"/v1/stream", "")
	binDeltas := openStream(t, hs.URL+"/v1/deltas", DeltaStreamContentType)
	deltasText := readSSE(t, sseDeltas)
	rowsText := readSSE(t, sseRows)
	binStream := make([]byte, 8)
	if _, err := io.ReadFull(binDeltas, binStream); err != nil {
		t.Fatalf("binary stream header: %v", err)
	}
	binStream = append(binStream, readRawFrame(t, binDeltas)...)
	boot := checkGolden(t, "delta_bootstrap.rkds", fetch(t, hs.URL+"/v1/delta", DeltaStreamContentType))

	// The second epoch moves an object, deletes one, ends a query, installs
	// another and reweights an edge: its delta carries a removed query, a
	// new one, and left/updated neighbors.
	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.875},{"id":2,"delete":true}],
		"queries":[{"id":9,"end":true},{"id":11,"k":1,"edge":3,"frac":0.5}],
		"edges":[{"edge":1,"w":2}]
	}`)
	second := s.Tick()
	if second.Epoch() != first.Epoch()+1 || len(second.Delta().Queries) < 3 {
		t.Fatalf("script premise broken: epochs %d -> %d, delta %+v", first.Epoch(), second.Epoch(), second.Delta())
	}
	deltasText = append(deltasText, readSSE(t, sseDeltas)...)
	rowsText = append(rowsText, readSSE(t, sseRows)...)
	binStream = append(binStream, readRawFrame(t, binDeltas)...)
	checkGolden(t, "deltas.sse", deltasText)
	checkGolden(t, "stream.sse", rowsText)

	since := fmt.Sprintf("?since=%d", first.Epoch())
	advance := checkGolden(t, "delta_advance.rkds", fetch(t, hs.URL+"/v1/delta"+since, DeltaStreamContentType))
	checkGolden(t, "delta_heartbeat.rkds",
		fetch(t, hs.URL+fmt.Sprintf("/v1/delta?since=%d&wait_ms=0", second.Epoch()), DeltaStreamContentType))
	checkGolden(t, "delta_advance.json", fetch(t, hs.URL+"/v1/delta"+since, ""))
	checkGolden(t, "snapshot.json", fetch(t, hs.URL+"/v1/snapshot", ""))
	checkGolden(t, "result.json", fetch(t, hs.URL+"/v1/result?query=7", ""))
	// The continuous stream is the long-poll bodies back to back under one
	// header.
	if want := append(append([]byte(nil), boot...), advance[8:]...); !bytes.Equal(binStream, want) {
		t.Fatalf("binary /v1/deltas stream\n got %x\nwant %x", binStream, want)
	}

	// Read side: the golden frames rebuild the published snapshot.
	r := NewDeltaStreamReader(bytes.NewReader(append(append([]byte(nil), boot...), advance[8:]...)))
	typ, payload, err := r.Next()
	if err != nil || typ != DeltaFrameResync {
		t.Fatalf("golden bootstrap frame: type %d, %v", typ, err)
	}
	_, base, _, err := DecodeDeltaFrame(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err = r.Next()
	if err != nil || typ != DeltaFrameDelta {
		t.Fatalf("golden delta frame: type %d, %v", typ, err)
	}
	d, _, _, err := DecodeDeltaFrame(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.AppendBinary(nil), second.AppendBinary(nil)) {
		t.Fatal("golden resync + delta frames do not rebuild the published snapshot")
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last golden frame: %v, want io.EOF", err)
	}

	// Replication log: both batches with their ticks, under the RKRL header.
	logBody := checkGolden(t, "replication_log.rkrl", fetch(t, hs.URL+"/v1/replication/log?since=0", ""))
	recs, err := DecodeReplLog(logBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 || recs[1].Tick == nil ||
		recs[1].Tick.Epoch != second.Epoch() || recs[1].Tick.SnapCRC != second.CRC32() {
		t.Fatalf("golden replication log decoded to %+v", recs)
	}
	if again := wal.EncodeRecords(AppendReplLogHeader(nil), recs); !bytes.Equal(again, logBody) {
		t.Fatal("replication log does not re-encode to the golden bytes")
	}
}

// TestGoldenUpdateBodies pins the RKUP ingestion stream: the v2 body the
// encoder writes, and a v1 body (no topology section) written by hand the
// way a pre-topology client would. Both must decode, through the POST
// handler, to the reports that went in.
func TestGoldenUpdateBodies(t *testing.T) {
	req := &batchRequest{
		Objects: []objectReport{{ID: 123456789, Edge: 0, Frac: 0.25}, {ID: 2, Delete: true}},
		Queries: []queryReport{{ID: 7, K: 2, Edge: 0, Frac: 0.5}, {ID: 9, End: true}},
		Edges:   []edgeReport{{Edge: 1, W: 2.5}},
	}

	// v1 by hand: header, then one frame whose payload ends after the edges.
	p := []byte{1}
	p = binary.LittleEndian.AppendUint32(p, 2)
	p = binary.LittleEndian.AppendUint64(p, 123456789)
	p = append(p, 0)
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.25))
	p = binary.LittleEndian.AppendUint64(p, 2)
	p = append(p, 1)
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = binary.LittleEndian.AppendUint64(p, 0)
	p = binary.LittleEndian.AppendUint32(p, 2)
	p = binary.LittleEndian.AppendUint32(p, 7)
	p = append(p, 0)
	p = binary.LittleEndian.AppendUint32(p, 2)
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.5))
	p = binary.LittleEndian.AppendUint32(p, 9)
	p = append(p, 1)
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = binary.LittleEndian.AppendUint64(p, 0)
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(2.5))
	v1 := append([]byte("RKUP"), 1, 0, 0, 0)
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(p)))
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	v1 = append(v1, p...)
	v1 = checkGolden(t, "updates_v1.rkup", v1)

	v2req := *req
	v2req.Topology = []topoReport{{Op: topoOpAdd, U: 0, V: 2, W: 6}, {Op: topoOpRemove, Edge: i32ptr(3)}}
	v2 := checkGolden(t, "updates_v2.rkup", EncodeWire(&v2req))
	// v2 is v1 plus the trailing topology section (and the version word).
	if !bytes.Equal(v1[16:], v2[16:16+len(p)]) {
		t.Fatal("v2 frame does not extend the v1 frame")
	}

	for name, tc := range map[string]struct {
		body []byte
		req  *batchRequest
	}{"v1": {v1, req}, "v2": {v2, &v2req}} {
		s, hs := newGoldenServer(t)
		if code := postRaw(t, hs.URL+"/v1/updates", "application/x-roadknn-updates", tc.body); code != http.StatusOK {
			t.Fatalf("%s golden body: status %d", name, code)
		}
		s.batchMu.Lock()
		got := s.batch.Preview()
		s.batchMu.Unlock()

		ref, hsRef := newGoldenServer(t)
		js, _ := json.Marshal(tc.req)
		post(t, hsRef.URL+"/v1/updates", string(js))
		ref.batchMu.Lock()
		wantU := ref.batch.Preview()
		ref.batchMu.Unlock()
		if !reflect.DeepEqual(got, wantU) {
			t.Fatalf("%s golden body decoded to\n%+v\nthe same reports as JSON give\n%+v", name, got, wantU)
		}
		if n, err := DecodeUpdates("binary", tc.body); err != nil || n != len(tc.req.Objects)+len(tc.req.Queries)+len(tc.req.Edges)+len(tc.req.Topology) {
			t.Fatalf("%s golden body: DecodeUpdates = %d, %v", name, n, err)
		}
	}
}
