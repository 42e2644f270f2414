package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roadknn"
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

// TestFirstMissingKMatchesMap checks the sorted grouping of query reports
// against the per-request map admission used to keep: for random requests
// over applied, pending, ended and unknown queries, the first report that
// would install with k < 1 must be the same one.
func TestFirstMissingKMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &Server{batch: NewBatcher()}
	for id := roadknn.QueryID(-2); id < 4; id++ {
		s.batch.Query(id, 2, pos(0, 0.5))
	}
	s.batch.Drain()
	s.batch.EndQuery(0)                // applied, ended this tick
	s.batch.Query(5, 2, pos(1, 0.5))   // pending install
	s.batch.Query(-1, 2, pos(1, 0.25)) // applied, pending move
	reference := func(qs []queryReport) int {
		needsK := map[roadknn.QueryID]bool{}
		for i, q := range qs {
			id := roadknn.QueryID(q.ID)
			if q.End {
				needsK[id] = true
				continue
			}
			nk, seen := needsK[id]
			if !seen {
				nk = s.batch.NeedsK(id)
				needsK[id] = nk
			}
			if nk && q.K < 1 {
				return i
			}
		}
		return -1
	}
	for trial := 0; trial < 2000; trial++ {
		qs := make([]queryReport, rng.Intn(12))
		for i := range qs {
			qs[i] = queryReport{ID: int32(rng.Intn(10) - 3), K: rng.Intn(3), End: rng.Intn(5) == 0}
		}
		if got, want := s.firstMissingK(qs), reference(qs); got != want {
			t.Fatalf("trial %d: firstMissingK(%+v) = %d, reference %d", trial, qs, got, want)
		}
	}
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
