package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"roadknn"
	"roadknn/internal/wal"
)

// TestServeRepeatedIDCountsOnce: a request that reports one id three times
// adds one pending entity, so it counts once against MaxPending — for
// objects, queries and edges alike.
func TestServeRepeatedIDCountsOnce(t *testing.T) {
	net := roadknn.GenerateNetwork(100, 3)
	s := New(roadknn.NewIMAWith(net, roadknn.Options{Serving: true}), Config{MaxPending: 3})
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	status := func(body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(`{"objects":[{"id":7,"edge":0,"frac":0.1},{"id":7,"edge":1,"frac":0.2},{"id":7,"edge":2,"frac":0.3}]}`); got != http.StatusOK {
		t.Fatalf("three reports of one object got status %d, want 200", got)
	}
	if got := status(`{"queries":[{"id":4,"k":2,"edge":0,"frac":0.1},{"id":4,"k":2,"edge":1,"frac":0.2},{"id":4,"k":3,"edge":2,"frac":0.3}],
		"edges":[{"edge":5,"w":2},{"edge":5,"w":3},{"edge":5,"w":4}]}`); got != http.StatusOK {
		t.Fatalf("three reports each of one query and one edge got status %d, want 200", got)
	}
	if s.batch.Pending() != 3 {
		t.Fatalf("pending %d after three distinct entities, want 3", s.batch.Pending())
	}
	if got := status(`{"objects":[{"id":8,"edge":0,"frac":0.1}]}`); got != http.StatusTooManyRequests {
		t.Fatalf("a fourth entity got status %d, want 429", got)
	}
	if got := status(`{"objects":[{"id":7,"edge":3,"frac":0.5},{"id":7,"edge":3,"frac":0.6}]}`); got != http.StatusOK {
		t.Fatalf("re-reports of a pending object at the cap got status %d, want 200", got)
	}
}

// PendingObject reports whether object id has a pending entry this tick
// (TestBatcherMatchesMapModel checks it against the map reference).
func (b *Batcher) PendingObject(id roadknn.ObjectID) bool {
	i, ok := b.objs.idx.Find(int32(id))
	return ok && b.objs.rows[i].pend != pendNone
}

// feedBatcher applies req to b through the Batcher's methods, unchecked,
// as admission does for a request it accepts, and returns the ids assigned
// to the insertions.
func feedBatcher(b *Batcher, req *batchRequest) []int64 {
	var added []int64
	for _, tp := range req.Topology {
		if tp.Op == topoOpRemove {
			b.RemoveEdge(roadknn.EdgeID(*tp.Edge))
			continue
		}
		added = append(added, int64(b.AddEdge(roadknn.NodeID(tp.U), roadknn.NodeID(tp.V), tp.W)))
	}
	for _, o := range req.Objects {
		if o.Delete {
			b.DeleteObject(roadknn.ObjectID(o.ID))
		} else {
			b.Object(roadknn.ObjectID(o.ID), pos(o.Edge, o.Frac))
		}
	}
	for _, q := range req.Queries {
		if q.End {
			b.EndQuery(roadknn.QueryID(q.ID))
		} else {
			b.Query(roadknn.QueryID(q.ID), q.K, pos(q.Edge, q.Frac))
		}
	}
	for _, e := range req.Edges {
		b.Edge(roadknn.EdgeID(e.Edge), e.W)
	}
	return added
}

// TestAdmissionMatchesReference admits seeded requests through ingest —
// valid ones, invalid ones whose bad report comes after good ones, and
// ones that end above MaxPending — and feeds only the accepted ones to a
// reference Batcher that never opens an undo log. After every request the
// two must agree on Preview, Pending, the edge view over the whole id
// space and the ids assigned to insertions; after every drain, on the
// drained batch and CheckpointState. The scripted requests come first so
// that each rejection the test names occurs at least once.
func TestAdmissionMatchesReference(t *testing.T) {
	const nodes, edges = 6, 8
	s := &Server{cfg: Config{MaxPending: 20}, numNodes: nodes, batch: NewBatcher()}
	ref := NewBatcher()
	s.batch.InitTopology(edges, nil)
	ref.InitTopology(edges, nil)
	rng := rand.New(rand.NewSource(11))

	script := []*batchRequest{
		{Objects: []objectReport{{ID: 1, Edge: 2, Frac: 0.5}}, Queries: []queryReport{{ID: 1, K: 2, Edge: 3, Frac: 0.5}}},
		nil, // drain
		// An install without k after an end in the same request.
		{Objects: []objectReport{{ID: 1, Delete: true}}, Queries: []queryReport{{ID: 1, End: true}, {ID: 1, Edge: 0, Frac: 0.5}}},
		// A removal of an edge with a pending report on it.
		{Objects: []objectReport{{ID: 2, Edge: 4, Frac: 0.5}}},
		{Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(5)}, {Op: topoOpRemove, Edge: i32ptr(4)}}},
		// A dead edge and a bad frac after good reports.
		{Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(6)}}, Objects: []objectReport{{ID: 3, Edge: 1, Frac: 0.5}, {ID: 4, Edge: 6, Frac: 0.5}}},
		{Objects: []objectReport{{ID: 1, Edge: 1, Frac: 0.25}, {ID: 5, Edge: 1, Frac: 1.5}}},
		// Id reuse, and a wrong id assertion after it.
		{Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(7)}}},
		nil,
		{Topology: []topoReport{{Op: topoOpAdd, U: 0, V: 1, W: 1}, {Op: topoOpAdd, Edge: i32ptr(7), U: 1, V: 2, W: 1}}},
		{Topology: []topoReport{{Op: topoOpAdd, Edge: i32ptr(7), U: 1, V: 2, W: 1}, {Op: topoOpRemove, Edge: i32ptr(7)}}},
		// Removing the last live edge, after removals that succeed.
		{Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(0)}, {Op: topoOpRemove, Edge: i32ptr(1)},
			{Op: topoOpRemove, Edge: i32ptr(2)}, {Op: topoOpRemove, Edge: i32ptr(3)}, {Op: topoOpRemove, Edge: i32ptr(5)},
			{Op: topoOpRemove, Edge: i32ptr(6)}, {Op: topoOpRemove, Edge: i32ptr(4)}}},
		// Over the cap: valid, but more than MaxPending new entities.
		{Objects: []objectReport{{ID: 10, Edge: 0, Frac: 0}, {ID: 11, Edge: 0, Frac: 0}, {ID: 12, Edge: 0, Frac: 0},
			{ID: 13, Edge: 0, Frac: 0}, {ID: 14, Edge: 0, Frac: 0}, {ID: 15, Edge: 0, Frac: 0}, {ID: 16, Edge: 0, Frac: 0},
			{ID: 17, Edge: 0, Frac: 0}, {ID: 18, Edge: 0, Frac: 0}, {ID: 19, Edge: 0, Frac: 0}, {ID: 20, Edge: 0, Frac: 0},
			{ID: 21, Edge: 0, Frac: 0}, {ID: 22, Edge: 0, Frac: 0}, {ID: 23, Edge: 0, Frac: 0}, {ID: 24, Edge: 0, Frac: 0},
			{ID: 25, Edge: 0, Frac: 0}, {ID: 26, Edge: 0, Frac: 0}, {ID: 27, Edge: 0, Frac: 0}, {ID: 28, Edge: 0, Frac: 0}}},
	}
	// randomRequest draws a request over the reference's edge view in which
	// now and then a report is invalid: a dead or out-of-range edge, a frac
	// of 1.5, a missing k, a zero weight, a self-loop, a wrong id assertion.
	randomRequest := func() *batchRequest {
		req := &batchRequest{}
		var live []int32
		for e := range ref.alive {
			if ref.alive[e] {
				live = append(live, int32(e))
			}
		}
		edge := func() int32 {
			if rng.Intn(12) == 0 {
				return int32(rng.Intn(len(ref.alive)+2)) - 1 // any id, dead or out of range too
			}
			return live[rng.Intn(len(live))]
		}
		frac := func() float64 {
			if rng.Intn(15) == 0 {
				return 1.5
			}
			return float64(rng.Intn(3)) / 2
		}
		for n := rng.Intn(3); n > 0; n-- {
			tp := topoReport{Op: topoOpRemove, Edge: i32ptr(edge())}
			if rng.Intn(2) == 0 {
				tp = topoReport{Op: topoOpAdd, U: int32(rng.Intn(nodes)), V: int32(rng.Intn(nodes)), W: 1 + rng.Float64()}
				if rng.Intn(4) == 0 {
					tp.Edge = i32ptr(edge())
				}
			}
			req.Topology = append(req.Topology, tp)
		}
		for n := rng.Intn(6); n > 0; n-- {
			req.Objects = append(req.Objects, objectReport{ID: int64(rng.Intn(8)), Edge: edge(), Frac: frac(), Delete: rng.Intn(4) == 0})
		}
		for n := rng.Intn(5); n > 0; n-- {
			req.Queries = append(req.Queries, queryReport{ID: int32(rng.Intn(6)), K: rng.Intn(8) / 2, Edge: edge(), Frac: frac(),
				End: rng.Intn(4) == 0})
		}
		for n := rng.Intn(3); n > 0; n-- {
			req.Edges = append(req.Edges, edgeReport{Edge: edge(), W: float64(rng.Intn(12))})
		}
		return req
	}

	rejected := map[string]int{}
	accepted, reused := 0, 0
	for step := 0; step < 3000; step++ {
		var req *batchRequest
		switch {
		case step < len(script):
			req = script[step]
		case rng.Intn(6) > 0:
			req = randomRequest()
		}
		if req == nil {
			if got, want := s.batch.Drain(), ref.Drain(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: drained\n%+v\nreference\n%+v", step, got, want)
			}
			o1, q1, t1 := s.batch.CheckpointState()
			o2, q2, t2 := ref.CheckpointState()
			if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(t1, t2) {
				t.Fatalf("step %d: checkpoint state differs from the reference", step)
			}
			continue
		}
		space := len(ref.alive)
		rec := httptest.NewRecorder()
		s.ingest(rec, req)
		switch rec.Code {
		case http.StatusOK:
			accepted++
			var resp struct{ Edges []int64 }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			want := feedBatcher(ref, req)
			if !slices.Equal(resp.Edges, want) {
				t.Fatalf("step %d: insertions assigned %v, reference %v", step, resp.Edges, want)
			}
			for _, id := range want {
				if id < int64(space) {
					reused++
				}
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
			msg := rec.Body.String()
			for _, what := range []string{"is not live", "outside [0,1]", "install requires k", "pending reports",
				"will be assigned", "no live edge", "too many pending"} {
				if strings.Contains(msg, what) {
					rejected[what]++
				}
			}
		default:
			t.Fatalf("step %d: status %d", step, rec.Code)
		}
		if got, want := s.batch.Preview(), ref.Preview(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (status %d): pending batch\n%+v\nreference\n%+v", step, rec.Code, got, want)
		}
		if s.batch.Pending() != ref.Pending() {
			t.Fatalf("step %d: Pending %d, reference %d", step, s.batch.Pending(), ref.Pending())
		}
		for e := roadknn.EdgeID(-1); int(e) <= max(len(s.batch.alive), len(ref.alive)); e++ {
			if s.batch.topoAlive(e) != ref.topoAlive(e) {
				t.Fatalf("step %d: topoAlive(%d) = %v, reference %v", step, e, s.batch.topoAlive(e), ref.topoAlive(e))
			}
		}
		if len(s.batch.alive) != len(ref.alive) || !slices.Equal(s.batch.free, ref.free) || s.batch.live != ref.live {
			t.Fatalf("step %d: edge view (%d ids, free %v, %d live), reference (%d ids, free %v, %d live)", step,
				len(s.batch.alive), s.batch.free, s.batch.live, len(ref.alive), ref.free, ref.live)
		}
	}
	t.Logf("%d accepted (%d reused edge ids); rejected: %v", accepted, reused, rejected)
	if reused == 0 || len(rejected) < 7 {
		t.Fatalf("coverage: %d reused edge ids, rejections %v", reused, rejected)
	}
}

// FuzzAdmit admits binary-decoded requests into a small IMA server that
// holds applied and pending state, then ticks. Nothing may panic — a
// request admission accepts must not panic the stepper — and a rejected
// request must leave the pending batch byte-identical.
func FuzzAdmit(f *testing.F) {
	for _, seed := range wireSeeds() {
		f.Add(seed)
	}
	for _, req := range []*batchRequest{
		{Objects: []objectReport{{ID: 1, Edge: 3, Frac: 0.5}, {ID: 2, Delete: true}},
			Queries: []queryReport{{ID: 7, K: 2, Edge: 3, Frac: 0.25}, {ID: 1, End: true}}, Edges: []edgeReport{{Edge: 2, W: 3}}},
		{Queries: []queryReport{{ID: 1, End: true}, {ID: 1, Edge: 0, Frac: 0.5}}},
		{Objects: []objectReport{{ID: 2, Edge: 3, Frac: 0.5}, {ID: 3, Delete: true}},
			Queries: []queryReport{{ID: 2, End: true}}, Edges: []edgeReport{{Edge: 1, W: 4}, {Edge: 2, W: 0}}},
		{Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(9)}, {Op: topoOpAdd, Edge: i32ptr(9), U: 1, V: 4, W: 2}},
			Objects: []objectReport{{ID: 5, Edge: 9, Frac: 0.5}}},
		{Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(2)}}, Objects: []objectReport{{ID: 3, Edge: 1, Frac: 0.5}}},
		{Topology: []topoReport{{Op: topoOpAdd, U: 1, V: 4, W: 2}}, Objects: []objectReport{{ID: 1, Edge: 2, Frac: 2}}},
	} {
		f.Add(EncodeWire(req))
	}
	base := []*batchRequest{
		{Objects: []objectReport{{ID: 1, Edge: 0, Frac: 0.5}, {ID: 2, Edge: 1, Frac: 0.5}},
			Queries: []queryReport{{ID: 1, K: 2, Edge: 0, Frac: 0.25}}},
		{Objects: []objectReport{{ID: 2, Edge: 2, Frac: 0.5}, {ID: 3, Edge: 4, Frac: 0.5}},
			Queries:  []queryReport{{ID: 1, End: true}, {ID: 2, K: 1, Edge: 5, Frac: 0.5}},
			Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(6)}}, Edges: []edgeReport{{Edge: 1, W: 2}}},
	}
	encode := func(u roadknn.Updates) []byte {
		return wal.EncodeRecords(nil, []wal.BatchRecord{{Seq: 1, Updates: u}})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := getWireScratch(bytes.NewReader(data))
		defer putWireScratch(sc)
		if sc.decodeWire() != nil {
			return
		}
		s := New(roadknn.NewIMAWith(roadknn.GenerateNetwork(30, 1), roadknn.Options{Workers: 1, Serving: true}),
			Config{MaxPending: 16})
		defer s.Close()
		for i, req := range base {
			rec := httptest.NewRecorder()
			if s.ingest(rec, req); rec.Code != http.StatusOK {
				t.Fatalf("base request %d: %d %s", i, rec.Code, rec.Body)
			}
			if i == 0 {
				s.Tick()
			}
		}
		before := encode(s.batch.Preview())
		rec := httptest.NewRecorder()
		s.ingest(rec, &sc.req)
		if rec.Code != http.StatusOK && !bytes.Equal(encode(s.batch.Preview()), before) {
			t.Fatalf("rejected request (%d %s) changed the pending batch", rec.Code, rec.Body)
		}
		s.Tick()
	})
}

// TestJSONDecodeRejectsUnknownFields: the handler and DecodeUpdates share
// one JSON decoder, and both refuse a field the format does not define.
func TestJSONDecodeRejectsUnknownFields(t *testing.T) {
	_, hs := newTestServer(t)
	for _, body := range []string{
		`{"objects":[{"id":1,"edge":0,"frac":0.5,"speed":3}]}`,
		`{"objects":[],"vehicles":[]}`,
	} {
		if _, err := DecodeUpdates("json", []byte(body)); err == nil {
			t.Errorf("DecodeUpdates accepted %s", body)
		}
		if got := postRaw(t, hs.URL+"/v1/updates", "application/json", []byte(body)); got != http.StatusBadRequest {
			t.Errorf("POST %s got status %d, want 400", body, got)
		}
	}
}

// TestJSONDecodeReusedScratchIsClean: decoding into a pooled scratch whose
// slices held a previous request must not carry that request's fields
// into elements that do not mention them (encoding/json leaves them be).
func TestJSONDecodeReusedScratchIsClean(t *testing.T) {
	sc := getWireScratch(strings.NewReader(`{"objects":[{"id":1,"edge":3,"frac":0.5,"delete":true}],
		"queries":[{"id":4,"k":9,"edge":2,"frac":0.5,"end":true}],
		"topology":[{"op":"remove","edge":6}]}`))
	defer putWireScratch(sc)
	if err := sc.decodeJSON(); err != nil {
		t.Fatal(err)
	}
	sc.reset(strings.NewReader(`{"objects":[{"id":2}],"queries":[{"id":5}],"topology":[{"op":"add"}]}`))
	if err := sc.decodeJSON(); err != nil {
		t.Fatal(err)
	}
	if len(sc.req.Objects) != 1 || sc.req.Objects[0] != (objectReport{ID: 2}) {
		t.Errorf("second request decoded objects %+v, want [{ID:2}]", sc.req.Objects)
	}
	if len(sc.req.Queries) != 1 || sc.req.Queries[0] != (queryReport{ID: 5}) {
		t.Errorf("second request decoded queries %+v, want [{ID:5}]", sc.req.Queries)
	}
	if len(sc.req.Topology) != 1 || sc.req.Topology[0] != (topoReport{Op: topoOpAdd}) {
		t.Errorf("second request decoded topology %+v, want [{Op:add}]", sc.req.Topology)
	}
}
