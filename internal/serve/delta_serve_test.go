package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"roadknn"
)

// newDeltaTestServer builds a server whose engine emits per-epoch deltas.
// Its result sets are small, so a few epochs of churn outweigh the snapshot
// and a lagging cursor reaches the resync path.
func newDeltaTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	net := roadknn.GenerateNetwork(300, 7)
	eng := roadknn.NewIMAWith(net, roadknn.Options{Workers: 2, Serving: true, Deltas: true})
	s := New(eng, Config{}) // manual ticks
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// deltaCursor is an oracle subscriber: it holds a base snapshot and
// advances it only through the delta protocol (never by reading the
// engine), counting how it advanced.
type deltaCursor struct {
	name    string
	snap    *roadknn.Snapshot
	deltas  int
	resyncs int
}

// advance pulls everything newer than the cursor's epoch from the server
// and applies it, checking each reconstructed epoch bit for bit against
// oracle (epoch -> canonical snapshot bytes recorded at publish time).
func (c *deltaCursor) advance(t *testing.T, s *Server, oracle map[uint64][]byte) {
	t.Helper()
	sub := &subscription{s: s, since: c.snap.Epoch()}
	adv := sub.next(context.Background(), 0)
	if adv.resync {
		c.snap = adv.head
		c.resyncs++
	}
	for _, d := range adv.chain {
		next, err := d.Apply(c.snap)
		if err != nil {
			t.Fatalf("%s: apply delta for epoch %d: %v", c.name, d.Epoch(), err)
		}
		c.snap = next
		c.deltas++
	}
	want, ok := oracle[c.snap.Epoch()]
	if !ok {
		t.Fatalf("%s: advanced to unrecorded epoch %d", c.name, c.snap.Epoch())
	}
	if got := c.snap.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: reconstructed snapshot at epoch %d differs from the published one (%d vs %d bytes)",
			c.name, c.snap.Epoch(), len(got), len(want))
	}
}

// TestDeltaOracle is the end-to-end correctness property of the delta
// protocol: over 60 timestamps of churn — ingested through all three wire
// encodings — every subscriber cadence reconstructs the exact published
// snapshot at every epoch it visits. The laggiest cursor's nine deltas
// outweigh the snapshot, so it falls off the ring and must recover via
// resync, not diverge.
func TestDeltaOracle(t *testing.T) {
	s, hs := newDeltaTestServer(t)
	rng := rand.New(rand.NewSource(42))
	// Reports stay on edges < 340 so the topology churn below can cycle
	// edge 349 without ever colliding with a pending report on it.
	numEdges := int32(340)

	// Oracle: canonical bytes of every published snapshot.
	oracle := map[uint64][]byte{}
	base := s.Engine().Snapshot()
	oracle[base.Epoch()] = base.AppendBinary(nil)

	cursors := []*deltaCursor{
		{name: "every-tick", snap: base},
		{name: "every-3", snap: base},
		{name: "every-9", snap: base}, // nine epochs of churn outweigh head: must hit resyncs
	}

	const nObj = 40
	liveObj := map[int64]bool{}
	liveQry := map[int32]int{} // id -> k
	nextQry := int32(100)

	for ts := 1; ts <= 60; ts++ {
		req := &batchRequest{}
		// Objects: initial placement at ts 1, then churn.
		for id := int64(0); id < nObj; id++ {
			switch {
			case !liveObj[id] && (ts == 1 || rng.Float64() < 0.1):
				liveObj[id] = true
				req.Objects = append(req.Objects, objectReport{ID: id, Edge: rng.Int31n(numEdges), Frac: rng.Float64()})
			case liveObj[id] && rng.Float64() < 0.05:
				liveObj[id] = false
				req.Objects = append(req.Objects, objectReport{ID: id, Delete: true})
			case liveObj[id] && rng.Float64() < 0.3:
				req.Objects = append(req.Objects, objectReport{ID: id, Edge: rng.Int31n(numEdges), Frac: rng.Float64()})
			}
		}
		// Queries: seed six at ts 1, then install/end/move. Installs and
		// moves both carry k (a k on a move of an applied query is legal).
		if ts == 1 {
			for id := int32(0); id < 6; id++ {
				k := 1 + int(id)%4
				liveQry[id] = k
				req.Queries = append(req.Queries, queryReport{ID: id, K: k, Edge: rng.Int31n(numEdges), Frac: rng.Float64()})
			}
		}
		if ts%10 == 4 {
			for id := range liveQry { // end one live query
				req.Queries = append(req.Queries, queryReport{ID: id, End: true})
				delete(liveQry, id)
				break
			}
		}
		if ts%10 == 6 {
			k := 1 + rng.Intn(4)
			liveQry[nextQry] = k
			req.Queries = append(req.Queries, queryReport{ID: nextQry, K: k, Edge: rng.Int31n(numEdges), Frac: rng.Float64()})
			nextQry++
		}
		for id, k := range liveQry {
			if rng.Float64() < 0.3 {
				req.Queries = append(req.Queries, queryReport{ID: id, K: k, Edge: rng.Int31n(numEdges), Frac: rng.Float64()})
			}
		}
		// A couple of edge-weight changes per tick.
		for i := 0; i < 2; i++ {
			req.Edges = append(req.Edges, edgeReport{Edge: rng.Int31n(numEdges), W: 0.5 + 2*rng.Float64()})
		}
		// Topology churn rides the same rotating encodings: edge 349 dies
		// and is reincarnated off the freelist (with an expected-id
		// assertion), so every delta subscriber reconstructs epochs whose
		// adjacency itself changed.
		if ts%5 == 2 {
			e := int32(349)
			req.Topology = append(req.Topology, topoReport{Op: topoOpRemove, Edge: &e})
		}
		if ts%5 == 3 {
			e := int32(349)
			req.Topology = append(req.Topology, topoReport{Op: topoOpAdd, Edge: &e, U: 10, V: 20, W: 1.2})
		}

		// Rotate the ingest encoding so the oracle exercises all three.
		var code int
		switch ts % 3 {
		case 0:
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			code = postRaw(t, hs.URL+"/v1/updates", "application/json", body)
		case 1:
			var buf bytes.Buffer
			if err := WriteNDJSON(&buf, req); err != nil {
				t.Fatalf("ndjson: %v", err)
			}
			code = postRaw(t, hs.URL+"/v1/updates", "application/x-ndjson", buf.Bytes())
		case 2:
			code = postRaw(t, hs.URL+"/v1/updates", "application/x-roadknn-updates", EncodeWire(req))
		}
		if code != http.StatusOK {
			t.Fatalf("ts %d: ingest status %d", ts, code)
		}

		snap := s.Tick()
		oracle[snap.Epoch()] = snap.AppendBinary(nil)

		cursors[0].advance(t, s, oracle)
		if ts%3 == 0 {
			cursors[1].advance(t, s, oracle)
		}
		if ts%9 == 0 {
			cursors[2].advance(t, s, oracle)
		}
	}
	// Everyone converges on the final epoch.
	final := s.Engine().Snapshot().Epoch()
	for _, c := range cursors {
		c.advance(t, s, oracle)
		if c.snap.Epoch() != final {
			t.Fatalf("%s: ended at epoch %d, want %d", c.name, c.snap.Epoch(), final)
		}
	}

	if cursors[0].resyncs != 0 || cursors[0].deltas == 0 {
		t.Errorf("every-tick cursor: %d deltas, %d resyncs — want pure delta chain",
			cursors[0].deltas, cursors[0].resyncs)
	}
	if cursors[2].resyncs == 0 {
		t.Errorf("every-9 cursor never fell off the ring: %d deltas, %d resyncs",
			cursors[2].deltas, cursors[2].resyncs)
	}
}

// TestDeltaLongPoll covers the HTTP long-poll surface: bootstrap without
// ?since, a real cursor advance carrying per-query churn, and a cursor
// holding a future epoch (which must time out with the true newest epoch,
// not hang or resync).
func TestDeltaLongPoll(t *testing.T) {
	s, hs := newDeltaTestServer(t)

	// Bootstrap: resync of the current snapshot.
	status, boot := get(t, hs.URL+"/v1/delta")
	if status != http.StatusOK {
		t.Fatalf("bootstrap status %d", status)
	}
	if boot["resync"] == nil {
		t.Fatalf("bootstrap without ?since did not resync: %v", boot)
	}
	since := uint64(boot["epoch"].(float64))

	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.5},{"id":2,"edge":1,"frac":0.2}],
		"queries":[{"id":7,"k":2,"edge":0,"frac":0.1}]
	}`)
	s.Tick()

	status, resp := get(t, hs.URL+fmt.Sprintf("/v1/delta?since=%d&wait_ms=1000", since))
	if status != http.StatusOK {
		t.Fatalf("delta status %d", status)
	}
	deltas, ok := resp["deltas"].([]any)
	if !ok || len(deltas) != 1 {
		t.Fatalf("want one delta, got %v", resp)
	}
	d := deltas[0].(map[string]any)
	if uint64(d["epoch"].(float64)) != since+1 {
		t.Fatalf("delta epoch %v, want %d", d["epoch"], since+1)
	}
	if qs := d["queries"].([]any); len(qs) != 1 {
		t.Fatalf("delta carries %d query changes, want 1 (the new query)", len(qs))
	}
	if uint64(resp["epoch"].(float64)) != since+1 {
		t.Fatalf("response epoch %v, want %d", resp["epoch"], since+1)
	}

	// /v1/stats reports what the ring retains: that one epoch's delta.
	_, stats := get(t, hs.URL+"/v1/stats")
	ringStats := stats["delta"].(map[string]any)
	if want := s.Engine().Snapshot().Delta().EncodedLen(); ringStats["ring_epochs"].(float64) != 1 || int(ringStats["ring_bytes"].(float64)) != want {
		t.Fatalf("stats report a ring of %v epochs, %v bytes; want 1 epoch, %d bytes", ringStats["ring_epochs"], ringStats["ring_bytes"], want)
	}

	// Future epoch: times out empty, reporting the real newest epoch.
	status, resp = get(t, hs.URL+"/v1/delta?since=999999&wait_ms=50")
	if status != http.StatusOK {
		t.Fatalf("future-epoch status %d", status)
	}
	if resp["deltas"] != nil || resp["resync"] != nil {
		t.Fatalf("future epoch answered with data: %v", resp)
	}
	if uint64(resp["epoch"].(float64)) != since+1 {
		t.Fatalf("future epoch correction %v, want %d", resp["epoch"], since+1)
	}

	// Malformed cursors are rejected.
	if status, _ := get(t, hs.URL+"/v1/delta?since=nope"); status != http.StatusBadRequest {
		t.Fatalf("bad ?since got %d", status)
	}
	if status, _ := get(t, hs.URL+fmt.Sprintf("/v1/delta?since=%d&wait_ms=-1", since)); status != http.StatusBadRequest {
		t.Fatalf("bad ?wait_ms got %d", status)
	}
}

// sseEvents reads server-sent events from /v1/deltas until ctx is done or
// limit events arrived, returning the event names in order.
func sseEvents(ctx context.Context, t *testing.T, url string, limit int) []string {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(events) < limit {
		if line := sc.Text(); strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
	}
	return events
}

// TestDeltaStreamSSE: a fresh subscriber opens with a resync and then
// receives one delta event per published epoch. The opening resync is read
// off the stream before the first Tick, so the subscriber is known to be
// attached at the pre-tick epoch however the goroutines are scheduled.
func TestDeltaStreamSSE(t *testing.T) {
	s, hs := newDeltaTestServer(t)
	resp, err := http.Get(hs.URL + "/v1/deltas")
	if err != nil {
		t.Fatalf("deltas: %v", err)
	}
	defer resp.Body.Close()
	events := readStream(t, resp.Body)

	if open := nextStreamEvent(t, events); open.name != "resync" {
		t.Fatalf("opening event %q, want resync", open.name)
	}
	for i := 0; i < 2; i++ {
		post(t, hs.URL+"/v1/updates",
			fmt.Sprintf(`{"objects":[{"id":%d,"edge":%d,"frac":0.5}]}`, i+1, i))
		snap := s.Tick()
		e := nextStreamEvent(t, events)
		if e.name != "delta" || uint64(e.data["epoch"].(float64)) != snap.Epoch() {
			t.Fatalf("event %d: %q at epoch %v, want delta at %d", i+1, e.name, e.data["epoch"], snap.Epoch())
		}
	}
}

// TestStreamRowsDeltaAware: with a delta-emitting engine, /v1/stream sends
// "rows" events carrying only the changed query rows, and skips epochs in
// which nothing changed for the subscribed query — the churn-proportional
// upgrade over the full-resend fallback. Each event is read before the next
// tick that touches the query: a subscriber that keeps up gets one event per
// epoch (one that lags gets them folded, see TestStreamRowsLaggingCursor).
func TestStreamRowsDeltaAware(t *testing.T) {
	s, hs := newDeltaTestServer(t)
	objs, qrys := ballast(5) // epochs B and C fit the ring, if the stream folds them
	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.5},{"id":2,"edge":200,"frac":0.5}`+objs+`],
		"queries":[{"id":3,"k":1,"edge":0,"frac":0.2},{"id":5,"k":1,"edge":200,"frac":0.2}`+qrys+`]
	}`)
	s.Tick()

	resp, err := http.Get(hs.URL + "/v1/stream?query=3")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	events := readStream(t, resp.Body)

	open := nextStreamEvent(t, events)
	if open.name != "resync" {
		t.Fatalf("opening event %q, want resync", open.name)
	}

	// Epoch A: only query 3's neighborhood changes -> a rows event.
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.9}]}`)
	snapA := s.Tick()
	rowsA := nextStreamEvent(t, events)
	if rowsA.name != "rows" || uint64(rowsA.data["epoch"].(float64)) != snapA.Epoch() {
		t.Fatalf("first rows event %q at epoch %v, want rows at %d", rowsA.name, rowsA.data["epoch"], snapA.Epoch())
	}
	ch := rowsA.data["changed"].([]any)
	if len(ch) != 1 || ch[0].(map[string]any)["id"].(float64) != 3 {
		t.Fatalf("rows event changed set %v, want exactly query 3", rowsA.data)
	}
	if _, hasNb := ch[0].(map[string]any)["neighbors"]; !hasNb {
		t.Fatalf("changed row carries no full neighbor list: %v", ch[0])
	}

	// Epoch B: only query 5's neighborhood changes -> nothing is sent to
	// this subscriber (verify the premise against the published delta).
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":2,"edge":200,"frac":0.9}]}`)
	snapB := s.Tick()
	if deltaTouches(snapB, 3) {
		t.Fatalf("test premise broken: epoch %d delta touches query 3", snapB.Epoch())
	}
	// Epoch C: query 3 again -> the next rows event is at C, whether the
	// stream had already advanced over B or folds B and C into one advance.
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.1}]}`)
	snapC := s.Tick()
	rowsC := nextStreamEvent(t, events)
	if rowsC.name != "rows" || uint64(rowsC.data["epoch"].(float64)) != snapC.Epoch() {
		t.Fatalf("second rows event %q at epoch %v, want rows at %d (epoch %d skipped)",
			rowsC.name, rowsC.data["epoch"], snapC.Epoch(), snapB.Epoch())
	}

	// Ending the query surfaces as a "removed" id, not a changed row.
	post(t, hs.URL+"/v1/updates", `{"queries":[{"id":3,"end":true}]}`)
	s.Tick()
	gone := nextStreamEvent(t, events)
	if gone.name != "rows" {
		t.Fatalf("removal event %q, want rows", gone.name)
	}
	rm := gone.data["removed"].([]any)
	if len(rm) != 1 || rm[0].(float64) != 3 {
		t.Fatalf("removal frame %v, want removed [3]", gone.data)
	}
}

// ballast returns the JSON array elements, each with a leading comma, of n
// k=2 queries (ids 20..) on edges 30, 35, ... with two objects (ids 100..)
// of their own at their position. Their rows never change, so they add to a
// snapshot's bytes and nothing to its deltas: a ring of a few epochs fits.
func ballast(n int) (objs, qrys string) {
	for i := 0; i < n; i++ {
		edge := 30 + 5*i
		objs += fmt.Sprintf(`,{"id":%d,"edge":%d,"frac":0.5},{"id":%d,"edge":%d,"frac":0.5}`, 100+2*i, edge, 101+2*i, edge)
		qrys += fmt.Sprintf(`,{"id":%d,"k":2,"edge":%d,"frac":0.5}`, 20+i, edge)
	}
	return objs, qrys
}

// deltaTouches reports whether snap's own delta names query id.
func deltaTouches(snap *roadknn.Snapshot, id roadknn.QueryID) bool {
	for _, qd := range snap.Delta().Queries {
		if qd.ID == id {
			return true
		}
	}
	return false
}

// TestStreamRowsLaggingCursor: a /v1/stream cursor several epochs behind is
// brought to the newest epoch by one "rows" event, folded over the deltas in
// between and read from the newest snapshot — the only place full rows
// exist, since the broker retains deltas, not old snapshots. Three ticks are
// published before the subscriber's first read: A (10) changes at E+1 and
// E+3, B (11) changes at E+1 and is ended at E+2, C (12) is ended at E+1 and
// re-installed at E+3, D (13) changes only at E+2 and is not subscribed.
// Ten ballast queries make the snapshot outweigh the three deltas, so the
// chain is resident. Serving an intermediate epoch's rows
// from anywhere but head — empty, stale, or the delta's own entries — fails
// the replay against /v1/snapshot. A cursor one epoch further back, whose
// chain starts with the registration of every query, outweighs the
// snapshot and is resynced instead.
func TestStreamRowsLaggingCursor(t *testing.T) {
	s, hs := newDeltaTestServer(t)
	const subscribed = "queries=10,11,12"
	// Two objects under every k=2 query, so a row is more than one entry
	// and one moved object is less than the row.
	objs, qrys := ballast(10)
	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.5},{"id":5,"edge":0,"frac":0.7},
			{"id":2,"edge":100,"frac":0.5},{"id":6,"edge":100,"frac":0.7},
			{"id":3,"edge":200,"frac":0.5},{"id":7,"edge":200,"frac":0.7},
			{"id":4,"edge":280,"frac":0.5},{"id":8,"edge":280,"frac":0.7}`+objs+`],
		"queries":[{"id":10,"k":2,"edge":0,"frac":0.2},{"id":11,"k":2,"edge":100,"frac":0.2},
			{"id":12,"k":2,"edge":200,"frac":0.2},{"id":13,"k":2,"edge":280,"frac":0.2}`+qrys+`]
	}`)
	base := s.Tick()
	_, view := get(t, hs.URL+"/v1/snapshot?"+subscribed) // the client's epoch-E view

	tick := func(body string, touched, untouched []roadknn.QueryID) *roadknn.Snapshot {
		t.Helper()
		post(t, hs.URL+"/v1/updates", body)
		snap := s.Tick()
		for _, id := range touched {
			if !deltaTouches(snap, id) {
				t.Fatalf("test premise broken: epoch %d's delta does not touch query %d", snap.Epoch(), id)
			}
		}
		for _, id := range untouched {
			if deltaTouches(snap, id) {
				t.Fatalf("test premise broken: epoch %d's delta touches query %d", snap.Epoch(), id)
			}
		}
		return snap
	}
	tick(`{"objects":[{"id":1,"edge":0,"frac":0.9},{"id":2,"edge":100,"frac":0.9}],"queries":[{"id":12,"end":true}]}`,
		[]roadknn.QueryID{10, 11, 12}, []roadknn.QueryID{13})
	tick(`{"objects":[{"id":4,"edge":280,"frac":0.9}],"queries":[{"id":11,"end":true}]}`,
		[]roadknn.QueryID{11, 13}, []roadknn.QueryID{10, 12})
	head := tick(`{"objects":[{"id":5,"edge":0,"frac":0.3}],"queries":[{"id":12,"k":2,"edge":200,"frac":0.4}]}`,
		[]roadknn.QueryID{10, 12}, []roadknn.QueryID{11, 13})
	if head.Epoch() != base.Epoch()+3 {
		t.Fatalf("three ticks took epoch %d to %d", base.Epoch(), head.Epoch())
	}
	if _, epochs, bytes := s.broker.weight(); epochs != 3 || bytes > head.EncodedLen() {
		t.Fatalf("test premise broken: the ring holds %d epochs of %d bytes, head weighs %d", epochs, bytes, head.EncodedLen())
	}
	if ev := nextStreamEvent(t, readStream(t, openStream(t, hs.URL+fmt.Sprintf("/v1/stream?since=%d", base.Epoch()-1), ""))); ev.name != "resync" {
		t.Fatalf("a cursor whose chain outweighs the snapshot got %q, want resync", ev.name)
	}

	resp, err := http.Get(hs.URL + fmt.Sprintf("/v1/stream?since=%d&%s", base.Epoch(), subscribed))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	events := readStream(t, resp.Body)
	ev := nextStreamEvent(t, events)
	if ev.name != "rows" || uint64(ev.data["epoch"].(float64)) != head.Epoch() {
		t.Fatalf("first event %q at epoch %v, want rows at %d", ev.name, ev.data["epoch"], head.Epoch())
	}

	// The event names A and C as changed, B as removed, and not D.
	rows := map[float64]any{}
	for _, q := range view["queries"].([]any) {
		rows[q.(map[string]any)["id"].(float64)] = q
	}
	var changed []float64
	for _, q := range ev.data["changed"].([]any) {
		id := q.(map[string]any)["id"].(float64)
		changed = append(changed, id)
		rows[id] = q
	}
	if fmt.Sprint(changed) != "[10 12]" || fmt.Sprint(ev.data["removed"]) != "[11]" {
		t.Fatalf("event changed %v removed %v, want changed [10 12] removed [11]", changed, ev.data["removed"])
	}
	delete(rows, 11)

	// Replayed on top of the epoch-E view, it yields the newest snapshot.
	_, want := get(t, hs.URL+"/v1/snapshot?"+subscribed)
	if uint64(want["epoch"].(float64)) != head.Epoch() || len(want["queries"].([]any)) != len(rows) {
		t.Fatalf("snapshot at epoch %v with %d rows, replay at %d has %d",
			want["epoch"], len(want["queries"].([]any)), head.Epoch(), len(rows))
	}
	for _, q := range want["queries"].([]any) {
		id := q.(map[string]any)["id"].(float64)
		if nb := q.(map[string]any)["neighbors"].([]any); len(nb) != 2 {
			t.Fatalf("test premise broken: query %v has %d neighbors at head", id, len(nb))
		}
		if !reflect.DeepEqual(rows[id], q) {
			t.Errorf("query %v after replay: %v, /v1/snapshot has %v", id, rows[id], q)
		}
	}

	// One event, not one per epoch: the stream is idle until the next tick.
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.6}]}`)
	last := s.Tick()
	if ev := nextStreamEvent(t, events); ev.name != "rows" || uint64(ev.data["epoch"].(float64)) != last.Epoch() {
		t.Fatalf("event after the fold: %q at epoch %v, want rows at %d", ev.name, ev.data["epoch"], last.Epoch())
	}
}

// TestDeltaStreamDisconnect: closing the client side of an SSE stream must
// release the handler — streams_active (surfaced in /v1/stats) drains back
// to zero, proving no goroutine is parked forever on a dead connection.
func TestDeltaStreamDisconnect(t *testing.T) {
	s, hs := newDeltaTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sseEvents(ctx, t, hs.URL+"/v1/deltas", 100) // reads until cancelled
	}()

	// Wait for the stream to register, then kill the client.
	waitFor(t, time.Second, func() bool { return s.streamsActive.Load() == 1 })
	cancel()
	<-done
	s.Tick() // wake the parked handler so it notices the dead connection
	waitFor(t, 2*time.Second, func() bool { return s.streamsActive.Load() == 0 })

	if _, stats := get(t, hs.URL+"/v1/stats"); stats["streams_active"].(float64) != 0 {
		t.Fatalf("stats streams_active = %v after disconnect", stats["streams_active"])
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeltaBrokerChurn hammers the fan-out under -race: hundreds of SSE
// subscribers connect with scattered cursors and drop mid-publish while
// the stepper keeps publishing epochs. Afterwards every handler must have
// unwound (streams_active back to zero) and the broker's counters must
// show both delivery paths were exercised.
func TestDeltaBrokerChurn(t *testing.T) {
	s, hs := newDeltaTestServer(t)
	subscribers := 200
	if testing.Short() {
		subscribers = 40
	}

	stop := make(chan struct{})
	var stepper sync.WaitGroup
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Plain http.Post: the test goroutine owns t, this one must not
			// Fatal. A failed ingest just makes this tick's delta empty.
			body := fmt.Sprintf(`{"objects":[{"id":%d,"edge":%d,"frac":0.25}]}`, i%17, i%11)
			if resp, err := http.Post(hs.URL+"/v1/updates", "application/json", strings.NewReader(body)); err == nil {
				resp.Body.Close()
			}
			s.Tick()
			time.Sleep(time.Millisecond)
		}
	}()

	rng := rand.New(rand.NewSource(7))
	var subs sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		url := hs.URL + "/v1/deltas"
		if i%3 == 1 {
			url += fmt.Sprintf("?since=%d", rng.Intn(20)) // scattered, often stale cursors
		}
		lifetime := time.Duration(1+rng.Intn(40)) * time.Millisecond
		want := 1 + rng.Intn(8)
		subs.Add(1)
		go func() {
			defer subs.Done()
			ctx, cancel := context.WithTimeout(context.Background(), lifetime)
			defer cancel()
			sseEvents(ctx, t, url, want)
		}()
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
	}
	subs.Wait()
	close(stop)
	stepper.Wait()
	s.Tick() // final wake so lingering handlers observe their dead clients

	waitFor(t, 5*time.Second, func() bool { return s.streamsActive.Load() == 0 })
	if out := s.broker.deltasOut.Load(); out == 0 {
		t.Error("no deltas were delivered during the churn")
	}
	if rs := s.broker.resyncs.Load(); rs == 0 {
		t.Error("no subscriber was resynced during the churn (cursors were stale)")
	}
}

// TestDeltaWithoutOptIn: a server whose engine does not emit deltas must
// still answer the delta endpoints — every advance is a resync, never an
// error and never a fabricated delta.
func TestDeltaWithoutOptIn(t *testing.T) {
	s, hs := newTestServer(t) // Options without Deltas
	status, boot := get(t, hs.URL+"/v1/delta")
	if status != http.StatusOK || boot["resync"] == nil {
		t.Fatalf("bootstrap on delta-less engine: status %d, %v", status, boot)
	}
	since := uint64(boot["epoch"].(float64))
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5}]}`)
	s.Tick()
	status, resp := get(t, hs.URL+fmt.Sprintf("/v1/delta?since=%d&wait_ms=1000", since))
	if status != http.StatusOK {
		t.Fatalf("delta status %d", status)
	}
	if resp["deltas"] != nil {
		t.Fatalf("delta-less engine produced deltas: %v", resp)
	}
	if resp["resync"] == nil {
		t.Fatalf("delta-less engine did not resync: %v", resp)
	}
}
