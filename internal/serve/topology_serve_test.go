package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"roadknn"
)

// TestServeTopologyLifecycle walks one live network edit through the full
// HTTP surface: remove an edge carrying an applied object and a query,
// observe both re-snap at the next tick, then reinstall the edge with an
// expected-id assertion and move the object back onto it.
func TestServeTopologyLifecycle(t *testing.T) {
	s, hs := newTestServer(t) // 295 nodes, 355 edges

	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":140,"frac":0.5}],
		"queries":[{"id":7,"k":1,"edge":140,"frac":0.25}]
	}`)
	post(t, hs.URL+"/v1/tick", "")

	// Remove the edge both entities sit on. Applied positions are legal to
	// orphan (they re-snap); only pending ones block a removal.
	resp := post(t, hs.URL+"/v1/updates", `{"topology":[{"op":"remove","edge":140}]}`)
	if resp["accepted"].(float64) != 1 {
		t.Fatalf("removal not accepted: %v", resp)
	}
	post(t, hs.URL+"/v1/tick", "")
	if s.eng.Network().G.EdgeAlive(140) {
		t.Fatal("edge 140 still alive after removal tick")
	}
	status, one := get(t, hs.URL+"/v1/result?query=7")
	if status != http.StatusOK {
		t.Fatalf("re-snapped query not served: %d", status)
	}
	if n := len(one["result"].(map[string]any)["neighbors"].([]any)); n != 1 {
		t.Fatalf("re-snapped query sees %d neighbors, want the re-snapped object", n)
	}

	// Reinstall: the freelist must hand back id 140, and the response
	// reports the assigned ids in op order.
	resp = post(t, hs.URL+"/v1/updates", `{"topology":[{"op":"add","edge":140,"u":10,"v":20,"w":1.5}]}`)
	ids, ok := resp["edges"].([]any)
	if !ok || len(ids) != 1 || ids[0].(float64) != 140 {
		t.Fatalf("insertion response edges = %v, want [140]", resp["edges"])
	}
	post(t, hs.URL+"/v1/tick", "")
	if !s.eng.Network().G.EdgeAlive(140) {
		t.Fatal("edge 140 not alive after reinstall tick")
	}

	// The reincarnated edge accepts positions again.
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":140,"frac":0.1}]}`)
	post(t, hs.URL+"/v1/tick", "")
	if status, _ := get(t, hs.URL+"/v1/result?query=7"); status != http.StatusOK {
		t.Fatalf("query lost after object moved onto reincarnated edge: %d", status)
	}
}

// TestServeTopologyValidation is the rejection table for live edits: every
// bad batch answers 400 with a pointed message and admits nothing.
func TestServeTopologyValidation(t *testing.T) {
	s, hs := newTestServer(t)

	// A same-request insertion makes its (predicted) id addressable by the
	// rest of the batch.
	resp := post(t, hs.URL+"/v1/updates", `{
		"topology":[{"op":"add","u":1,"v":2,"w":1.0}],
		"objects":[{"id":50,"edge":355,"frac":0.5}]
	}`)
	if ids := resp["edges"].([]any); ids[0].(float64) != 355 {
		t.Fatalf("first insertion assigned %v, want 355", ids[0])
	}

	for name, tc := range map[string]struct{ body, want string }{
		"remove without edge": {`{"topology":[{"op":"remove"}]}`, "remove requires"},
		"remove dead twice":   {`{"topology":[{"op":"remove","edge":5},{"op":"remove","edge":5}]}`, "not live"},
		"unknown op":          {`{"topology":[{"op":"merge","edge":5}]}`, "unknown op"},
		"self-loop":           {`{"topology":[{"op":"add","u":3,"v":3,"w":1.0}]}`, "self-loop"},
		"node out of range":   {`{"topology":[{"op":"add","u":1,"v":99999,"w":1.0}]}`, "node out of range"},
		"zero weight":         {`{"topology":[{"op":"add","u":1,"v":2,"w":0}]}`, "weight must be finite and positive"},
		"wrong expected id":   {`{"topology":[{"op":"add","edge":9999,"u":1,"v":2,"w":1.0}]}`, "will be assigned"},
		"position on removed edge": {
			`{"topology":[{"op":"remove","edge":6}],"objects":[{"id":5,"edge":6,"frac":0.5}]}`, "not live"},
		"query on removed edge": {
			`{"topology":[{"op":"remove","edge":6}],"queries":[{"id":5,"k":1,"edge":6,"frac":0.5}]}`, "not live"},
	} {
		code, body := rawPost(t, hs.URL+"/v1/updates", tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("%s: got %d %q, want 400 containing %q", name, code, body, tc.want)
		}
	}

	// An edge with pending reports cannot be removed until a tick drains
	// them; afterwards the removal goes through.
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":8,"edge":8,"frac":0.5}]}`)
	code, body := rawPost(t, hs.URL+"/v1/updates", `{"topology":[{"op":"remove","edge":8}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "pending reports") {
		t.Fatalf("pending-on-edge removal: got %d %q", code, body)
	}
	post(t, hs.URL+"/v1/tick", "")
	post(t, hs.URL+"/v1/updates", `{"topology":[{"op":"remove","edge":8}]}`)

	// Removing every edge but one is fine; the last live edge is load-
	// bearing for every position and must refuse to die. One batch drains
	// the network down to a single edge.
	var drain []map[string]any
	for e := 0; e < len(s.batch.alive); e++ {
		id := roadknn.EdgeID(e)
		if e == 8 || e == 0 || !s.batch.topoAlive(id) {
			continue // 8 is pending-removed above; 0 is the survivor
		}
		drain = append(drain, map[string]any{"op": "remove", "edge": e})
	}
	blob, _ := json.Marshal(map[string]any{"topology": drain})
	if code, body := rawPost(t, hs.URL+"/v1/updates", string(blob)); code != http.StatusOK {
		t.Fatalf("drain batch rejected: %d %q", code, body)
	}
	code, body = rawPost(t, hs.URL+"/v1/updates", `{"topology":[{"op":"remove","edge":0}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "no live edge") {
		t.Fatalf("last-edge removal: got %d %q", code, body)
	}
	// The drained network still ticks and serves.
	post(t, hs.URL+"/v1/tick", "")
	if status, _ := get(t, hs.URL+"/v1/snapshot"); status != http.StatusOK {
		t.Fatal("snapshot unavailable after drain tick")
	}
}

// TestServeTopologyEncodingEquivalence posts the same editing batch to
// three identical servers through the three wire encodings and requires
// bit-identical snapshots: the encoding is transport, never semantics.
func TestServeTopologyEncodingEquivalence(t *testing.T) {
	req := &batchRequest{
		Topology: []topoReport{
			{Op: topoOpRemove, Edge: i32ptr(140)},
			{Op: topoOpAdd, Edge: i32ptr(140), U: 10, V: 20, W: 1.5},
			{Op: topoOpAdd, U: 30, V: 40, W: 2.25},
		},
		Objects: []objectReport{{ID: 1, Edge: 355, Frac: 0.5}, {ID: 2, Edge: 140, Frac: 0.25}},
		Queries: []queryReport{{ID: 7, K: 2, Edge: 355, Frac: 0.125}},
		Edges:   []edgeReport{{Edge: 3, W: 2.5}},
	}
	encodings := map[string]func() (string, []byte){
		"json": func() (string, []byte) {
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			return "application/json", b
		},
		"ndjson": func() (string, []byte) {
			var buf bytes.Buffer
			if err := WriteNDJSON(&buf, req); err != nil {
				t.Fatalf("ndjson: %v", err)
			}
			return "application/x-ndjson", buf.Bytes()
		},
		"binary": func() (string, []byte) {
			return "application/x-roadknn-updates", EncodeWire(req)
		},
	}
	var want []byte
	var wantFrom string
	for name, enc := range encodings {
		s, hs := newTestServer(t)
		ct, body := enc()
		if code := postRaw(t, hs.URL+"/v1/updates", ct, body); code != http.StatusOK {
			t.Fatalf("%s: ingest status %d", name, code)
		}
		got := s.Tick().AppendBinary(nil)
		if want == nil {
			want, wantFrom = got, name
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s snapshot differs from %s after the same editing batch", name, wantFrom)
		}
	}
}

// TestServeDeltaQueryFilter covers ?queries= on the delta endpoints: a
// subscriber interested in one query never sees another query's churn,
// its cursor still advances past the filtered epochs, and a bad filter is
// a 400.
func TestServeDeltaQueryFilter(t *testing.T) {
	s, hs := newDeltaTestServer(t)

	// Two queries on far-apart edges, each with a dedicated object.
	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.5},{"id":2,"edge":200,"frac":0.5}],
		"queries":[{"id":1,"k":1,"edge":0,"frac":0.25},{"id":2,"k":1,"edge":200,"frac":0.25}]
	}`)
	s.Tick()
	since := s.Engine().Snapshot().Epoch()

	// Churn only query 2's object: a ?queries=1 subscriber sees the epoch
	// advance but no delta rows.
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":2,"edge":201,"frac":0.75}]}`)
	s.Tick()
	status, resp := get(t, hs.URL+fmt.Sprintf("/v1/delta?since=%d&queries=1&wait_ms=0", since))
	if status != http.StatusOK {
		t.Fatalf("filtered delta status %d", status)
	}
	if resp["deltas"] != nil {
		t.Fatalf("queries=1 subscriber saw query 2's churn: %v", resp)
	}
	if uint64(resp["epoch"].(float64)) != since+1 {
		t.Fatalf("filtered cursor stuck: epoch %v, want %d", resp["epoch"], since+1)
	}

	// The interested subscriber gets exactly its rows.
	status, resp = get(t, hs.URL+fmt.Sprintf("/v1/delta?since=%d&queries=2,9&wait_ms=0", since))
	if status != http.StatusOK {
		t.Fatalf("filtered delta status %d", status)
	}
	deltas := resp["deltas"].([]any)
	if len(deltas) != 1 {
		t.Fatalf("queries=2 subscriber got %d deltas, want 1", len(deltas))
	}
	rows := deltas[0].(map[string]any)["queries"].([]any)
	if len(rows) != 1 || rows[0].(map[string]any)["id"].(float64) != 2 {
		t.Fatalf("filtered rows %v, want only query 2", rows)
	}

	// Filtered bootstrap: the resync snapshot is subset the same way.
	status, boot := get(t, hs.URL+"/v1/delta?queries=2")
	if status != http.StatusOK {
		t.Fatalf("filtered bootstrap status %d", status)
	}
	rs := boot["resync"].(map[string]any)["queries"].([]any)
	if len(rs) != 1 || rs[0].(map[string]any)["id"].(float64) != 2 {
		t.Fatalf("filtered resync carries %v, want only query 2", rs)
	}

	// Malformed filters are rejected; an empty value means "no filter".
	for _, q := range []string{"queries=x", "queries=1,x", "queries=,"} {
		if status, _ := get(t, hs.URL+"/v1/delta?"+q); status != http.StatusBadRequest {
			t.Fatalf("filter %q got %d, want 400", q, status)
		}
	}
	if status, _ := get(t, hs.URL+"/v1/delta?queries="); status != http.StatusOK {
		t.Fatal("empty ?queries= must mean unfiltered, not an error")
	}
}

func i32ptr(v int32) *int32 { return &v }
