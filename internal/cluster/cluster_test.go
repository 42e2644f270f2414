package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"roadknn"
	"roadknn/internal/planner"
	"roadknn/internal/serve"
	"roadknn/internal/wal"
)

// engineMaker builds the engine every node of one test cluster runs.
type engineMaker func(*roadknn.Network, roadknn.Options) roadknn.Engine

// newEngine builds one node's engine: the network is a pure function of
// (edges, seed), so primary and followers constructed here are
// byte-compatible. PlanEvery only matters to AUTO, which re-plans every
// third tick.
func newEngine(mk engineMaker, edges int) roadknn.Engine {
	return mk(roadknn.GenerateNetwork(edges, 7), roadknn.Options{
		Workers: 1, Serving: true,
		Planner: roadknn.PlannerOptions{PlanEvery: 3},
	})
}

// newPrimary builds a durable manual-tick primary over a MemFS WAL and
// serves it over HTTP.
func newPrimary(t *testing.T, mk engineMaker, edges, checkpointEvery int) (*serve.Server, *httptest.Server) {
	t.Helper()
	eng := newEngine(mk, edges)
	l, rec, err := wal.Open(wal.NewMemFS(), wal.Options{Retries: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		eng.Close()
		t.Fatalf("wal open: %v", err)
	}
	s := serve.New(eng, serve.Config{WAL: l, CheckpointEvery: checkpointEvery})
	if _, err := s.Recover(rec); err != nil {
		t.Fatalf("recover empty: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// newFollowerNode builds a follower-mode server mirroring the primary's
// engine, serves it over HTTP, and wraps it in a Follower driver. It sets
// no CheckpointEvery, whatever the primary's: epochs do not depend on it.
// Bootstrap is left to the caller.
func newFollowerNode(t *testing.T, mk engineMaker, edges int, primaryURL string) (*Follower, *httptest.Server) {
	t.Helper()
	eng := newEngine(mk, edges)
	s := serve.New(eng, serve.Config{Follower: true})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return NewFollower(s, FollowerConfig{Primary: primaryURL, PollWait: 500 * time.Millisecond}), hs
}

// postJSON posts v to url and fails the test on a non-2xx answer.
func postJSON(t *testing.T, url string, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
}

// churnBatch is the deterministic per-timestamp workload: installs,
// moves and deletes objects, moves queries, perturbs edge weights — all
// driven by one seeded source so every run replays identically.
func churnBatch(rng *rand.Rand, ts int, live map[int64]bool) map[string]any {
	var objects, queries, edgesv []map[string]any
	for i := 0; i < 6; i++ {
		id := int64(rng.Intn(40))
		switch {
		case live[id] && rng.Float64() < 0.15:
			objects = append(objects, map[string]any{"id": id, "delete": true})
			delete(live, id)
		default:
			objects = append(objects, map[string]any{
				"id": id, "edge": rng.Intn(100), "frac": rng.Float64(),
			})
			live[id] = true
		}
	}
	if ts == 1 {
		for q := 1; q <= 6; q++ {
			queries = append(queries, map[string]any{
				"id": q, "k": 2 + q%3, "edge": rng.Intn(100), "frac": rng.Float64(),
			})
		}
	} else if rng.Float64() < 0.4 {
		queries = append(queries, map[string]any{
			"id": 1 + rng.Intn(6), "edge": rng.Intn(100), "frac": rng.Float64(),
		})
	}
	if ts%7 == 3 {
		edgesv = append(edgesv, map[string]any{"edge": rng.Intn(30), "w": 0.5 + rng.Float64()*2})
	}
	out := map[string]any{"objects": objects}
	if queries != nil {
		out["queries"] = queries
	}
	if edgesv != nil {
		out["edges"] = edgesv
	}
	return out
}

func snapBytes(s *serve.Server) []byte { return s.Engine().Snapshot().AppendBinary(nil) }

// waitCursor blocks until the follower's cursor reaches seq (or the
// deadline passes — background tail loops apply asynchronously).
func waitCursor(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Cursor() < seq {
		if err := f.Err(); err != nil {
			t.Fatalf("follower stopped at cursor %d: %v", f.Cursor(), err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at cursor %d, want %d", f.Cursor(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hotspotQueries is the dense agile group riding every tick of the
// divergence test's stream: six k=3 queries packed onto one edge that moves
// every fifth tick, dragging the group across the planner's spatial cells.
// Under AUTO the cost model hands the group to GMA and re-decides as it
// drifts; under a static engine it is just more churn.
func hotspotQueries(ts int) []map[string]any {
	edge := (ts / 5 * 17) % 100
	var qs []map[string]any
	for q := 10; q < 16; q++ {
		r := map[string]any{"id": q, "edge": edge, "frac": float64((ts*7+q*3)%9) / 9}
		if ts == 1 {
			r["k"] = 3
		}
		qs = append(qs, r)
	}
	return qs
}

// migrations reads a node's cumulative group-migration count (0 for a
// static engine).
func migrations(s *serve.Server) uint64 {
	if sp, ok := s.Engine().(planner.StatsProvider); ok {
		return sp.PlannerStats().Migrations
	}
	return 0
}

// TestClusterDivergenceThreeFollowers is the end-to-end replication
// property, for every engine: over 60 timestamps of churn ingested through
// the primary's HTTP front door, three followers — two tailing in the
// background, one stepped synchronously and byte-compared against the
// primary at every timestamp — never diverge. One background follower is
// killed at ts 20 and a replacement joins at ts 40, bootstrapping from the
// newest checkpoint and tailing the rest of the log; at ts 60 every live
// follower's snapshot is byte-identical to the primary's. Under AUTO the
// synchronous follower must also have made the primary's migrations at the
// primary's ticks, and the run must have migrated at all. The primary
// checkpoints every 20 ticks; the followers are configured with no
// checkpoint cadence at all.
func TestClusterDivergenceThreeFollowers(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   engineMaker
	}{
		{"IMA", roadknn.NewIMAWith},
		{"GMA", roadknn.NewGMAWith},
		{"OVH", roadknn.NewOVHWith},
		{"AUTO", roadknn.NewAutoWith},
	} {
		t.Run(eng.name, func(t *testing.T) { clusterDivergence(t, eng.mk, eng.name == "AUTO") })
	}
}

func clusterDivergence(t *testing.T, mk engineMaker, wantMigrations bool) {
	const (
		edges           = 300
		checkpointEvery = 20
		ticks           = 60
	)
	prim, hp := newPrimary(t, mk, edges, checkpointEvery)

	// All three followers join before the first tick: no checkpoint exists
	// yet, so they bootstrap empty and tail from sequence 0.
	fSync, hSync := newFollowerNode(t, mk, edges, hp.URL)
	fBg, _ := newFollowerNode(t, mk, edges, hp.URL)
	fDoomed, _ := newFollowerNode(t, mk, edges, hp.URL)
	for _, f := range []*Follower{fSync, fBg, fDoomed} {
		if err := f.Bootstrap(); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
		if f.Cursor() != 0 {
			t.Fatalf("empty bootstrap left cursor at %d", f.Cursor())
		}
	}
	fBg.Start()
	defer fBg.Stop()
	fDoomed.Start()

	// Writes must bounce off a follower with a pointer to the primary.
	resp, err := http.Post(hSync.URL+"/v1/tick", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST follower tick: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower accepted a write: %s", resp.Status)
	}

	rng := rand.New(rand.NewSource(42))
	live := map[int64]bool{}
	var fJoin *Follower
	for ts := 1; ts <= ticks; ts++ {
		batch := churnBatch(rng, ts, live)
		qs, _ := batch["queries"].([]map[string]any)
		batch["queries"] = append(qs, hotspotQueries(ts)...)
		// Live network editing rides the same stream: edge 140 cycles
		// through remove/re-add (the freelist reuses its id), fresh edges
		// grow the id space, and object 90 parks on the reincarnated edge
		// so the next removal exercises the engine-side re-snap through
		// replication and the checkpoint-bootstrap path.
		switch ts % 10 {
		case 2:
			batch["topology"] = []map[string]any{{"op": "remove", "edge": 140}}
		case 3:
			batch["topology"] = []map[string]any{{"op": "add", "u": 1, "v": 2, "w": 1.25}}
		case 5:
			batch["topology"] = []map[string]any{{"op": "add", "u": 3, "v": 5, "w": 2.5}}
		case 7:
			batch["objects"] = append(batch["objects"].([]map[string]any),
				map[string]any{"id": int64(90), "edge": 140, "frac": 0.5})
			live[90] = true
		}
		postJSON(t, hp.URL+"/v1/updates", batch)
		postJSON(t, hp.URL+"/v1/tick", map[string]any{})
		want := snapBytes(prim)

		// The synchronous follower steps in lockstep and must match the
		// primary bit for bit at every timestamp.
		if _, err := fSync.SyncOnce(0); err != nil {
			t.Fatalf("ts %d: sync: %v", ts, err)
		}
		if got := fSync.Cursor(); got != uint64(ts) {
			t.Fatalf("ts %d: sync follower cursor %d", ts, got)
		}
		if got := snapBytes(fSync.Server()); !bytes.Equal(got, want) {
			t.Fatalf("ts %d: sync follower snapshot differs from primary (%d vs %d bytes)",
				ts, len(got), len(want))
		}
		if got, want := migrations(fSync.Server()), migrations(prim); got != want {
			t.Fatalf("ts %d: sync follower has migrated %d groups, primary %d", ts, got, want)
		}

		switch ts {
		case 20: // kill one background follower mid-run
			fDoomed.Stop()
		case 40: // a replacement joins: checkpoint bootstrap, then log tail
			fJoin, _ = newFollowerNode(t, mk, edges, hp.URL)
			if err := fJoin.Bootstrap(); err != nil {
				t.Fatalf("rejoin bootstrap: %v", err)
			}
			if got := fJoin.Cursor(); got != 40 {
				t.Fatalf("rejoin bootstrapped at cursor %d, want 40 (the newest checkpoint)", got)
			}
			if got := snapBytes(fJoin.Server()); !bytes.Equal(got, want) {
				t.Fatal("rejoined follower's checkpoint bootstrap differs from primary at ts 40")
			}
			fJoin.Start()
			defer fJoin.Stop()
		}
	}
	if wantMigrations && migrations(prim) == 0 {
		t.Error("the drifting hotspot never migrated a group; the run exercised no planner decision")
	}

	want := snapBytes(prim)
	wantEpoch := prim.Engine().Snapshot().Epoch()
	waitCursor(t, fBg, ticks)
	waitCursor(t, fJoin, ticks)
	for name, f := range map[string]*Follower{"sync": fSync, "background": fBg, "rejoined": fJoin} {
		if err := f.Err(); err != nil {
			t.Fatalf("%s follower error: %v", name, err)
		}
		if f.Server().ReadOnly() {
			t.Fatalf("%s follower is poisoned", name)
		}
		snap := f.Server().Engine().Snapshot()
		if snap.Epoch() != wantEpoch {
			t.Fatalf("%s follower at epoch %d, primary at %d", name, snap.Epoch(), wantEpoch)
		}
		if got := snap.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s follower snapshot differs from primary at epoch %d", name, wantEpoch)
		}
	}
	// The dead follower froze at its kill point and was never poisoned:
	// it simply stopped, exactly like a crashed process.
	if c := fDoomed.Cursor(); c < 1 || c > ticks {
		t.Fatalf("killed follower cursor %d out of range", c)
	}
}

// TestFollowerPrunedLogRebootstrap drives a follower so far behind that
// checkpoint rotation prunes its cursor off the log: SyncOnce must
// report ErrLogPruned, and a fresh node must recover via checkpoint
// bootstrap — the late-joiner path.
func TestFollowerPrunedLogRebootstrap(t *testing.T) {
	prim, hp := newPrimary(t, roadknn.NewIMAWith, 150, 2)
	f, _ := newFollowerNode(t, roadknn.NewIMAWith, 150, hp.URL)
	if err := f.Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	live := map[int64]bool{}
	for ts := 1; ts <= 6; ts++ { // checkpoints at 2, 4, 6; segment 1.. pruned
		postJSON(t, hp.URL+"/v1/updates", churnBatch(rng, ts, live))
		postJSON(t, hp.URL+"/v1/tick", map[string]any{})
	}
	if _, err := f.SyncOnce(0); err != ErrLogPruned {
		t.Fatalf("lagged follower got %v, want ErrLogPruned", err)
	}
	f2, _ := newFollowerNode(t, roadknn.NewIMAWith, 150, hp.URL)
	if err := f2.Bootstrap(); err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	if got := f2.Cursor(); got != 6 {
		t.Fatalf("re-bootstrap landed at cursor %d, want 6", got)
	}
	if got := snapBytes(f2.Server()); !bytes.Equal(got, snapBytes(prim)) {
		t.Fatal("re-bootstrapped follower differs from primary")
	}
}

// TestRouterEpochConsistency pins the router's consistency token: a read
// carrying ?since=E is only ever proxied to a backend whose known epoch
// has reached E, lagging backends are skipped, and a dead backend is
// failed over without the client seeing an error.
func TestRouterEpochConsistency(t *testing.T) {
	prim, hp := newPrimary(t, roadknn.NewIMAWith, 150, 4)
	fa, ha := newFollowerNode(t, roadknn.NewIMAWith, 150, hp.URL)
	fb, hb := newFollowerNode(t, roadknn.NewIMAWith, 150, hp.URL)
	for _, f := range []*Follower{fa, fb} {
		if err := f.Bootstrap(); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	live := map[int64]bool{}
	tick := func() {
		postJSON(t, hp.URL+"/v1/updates", churnBatch(rng, 1, live))
		postJSON(t, hp.URL+"/v1/tick", map[string]any{})
	}
	tick()
	tick()
	// B stops syncing here; A keeps up.
	if _, err := fb.SyncOnce(0); err != nil {
		t.Fatalf("sync b: %v", err)
	}
	tick()
	tick()
	tick()
	if _, err := fa.SyncOnce(0); err != nil {
		t.Fatalf("sync a: %v", err)
	}

	rt := NewRouter(RouterConfig{Followers: []string{ha.URL, hb.URL}})
	rt.probeAll()
	hr := httptest.NewServer(rt.Handler())
	defer hr.Close()

	epochA := fa.Server().Engine().Snapshot().Epoch()
	epochB := fb.Server().Engine().Snapshot().Epoch()
	if epochB >= epochA {
		t.Fatalf("test setup: follower B (epoch %d) not behind A (epoch %d)", epochB, epochA)
	}

	// Every ?since=epochA read must land on A: the response epoch can
	// never fall below the cursor, no matter how often we ask.
	for i := 0; i < 10; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/snapshot?since=%d&wait_ms=0", hr.URL, epochA))
		if err != nil {
			t.Fatalf("GET via router: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("router read: %s", resp.Status)
		}
		e, ok := parseEpochHeader(resp.Header)
		if !ok || e < epochA {
			t.Fatalf("router served epoch %d for ?since=%d (lagging backend not skipped)", e, epochA)
		}
	}

	// A cursor beyond every replica: the router must refuse, not regress.
	resp, err := http.Get(fmt.Sprintf("%s/v1/snapshot?since=%d&wait_ms=0", hr.URL, epochA+100))
	if err != nil {
		t.Fatalf("GET via router: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("future cursor answered %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Kill A. The next plain read fails over to B transparently; the
	// epoch-gated read now has no eligible backend.
	ha.Close()
	resp, err = http.Get(hr.URL + "/v1/snapshot")
	if err != nil {
		t.Fatalf("GET via router after kill: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover read: %s", resp.Status)
	}
	if e, ok := parseEpochHeader(resp.Header); !ok || e != epochB {
		t.Fatalf("failover read served epoch %d, want B's %d", e, epochB)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/snapshot?since=%d&wait_ms=0", hr.URL, epochA))
	if err != nil {
		t.Fatalf("GET via router after kill: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("epoch-gated read after kill answered %s, want 503", resp.Status)
	}

	// With a primary configured, writes forward and reads have a backend
	// of last resort.
	rt2 := NewRouter(RouterConfig{Followers: []string{hb.URL}, Primary: hp.URL})
	rt2.probeAll()
	hr2 := httptest.NewServer(rt2.Handler())
	defer hr2.Close()
	postJSON(t, hr2.URL+"/v1/updates", churnBatch(rng, 2, live))
	postJSON(t, hr2.URL+"/v1/tick", map[string]any{})
	primEpoch := prim.Engine().Snapshot().Epoch()
	resp, err = http.Get(fmt.Sprintf("%s/v1/snapshot?since=%d&wait_ms=0", hr2.URL, primEpoch))
	if err != nil {
		t.Fatalf("GET via router2: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary fallback read: %s", resp.Status)
	}
	if e, ok := parseEpochHeader(resp.Header); !ok || e < primEpoch {
		t.Fatalf("primary fallback served epoch %d, want >= %d", e, primEpoch)
	}

	// The router's own health and cluster views.
	var cl struct {
		Primary   string `json:"primary"`
		Followers []struct {
			URL   string `json:"url"`
			Alive bool   `json:"alive"`
			Epoch uint64 `json:"epoch"`
		} `json:"followers"`
	}
	if err := getJSON(http.DefaultClient, hr2.URL+"/v1/cluster", &cl); err != nil {
		t.Fatalf("cluster view: %v", err)
	}
	if cl.Primary != hp.URL || len(cl.Followers) != 1 || !cl.Followers[0].Alive {
		t.Fatalf("unexpected cluster view: %+v", cl)
	}
}

// TestBootstrapTornCheckpointRejected cuts the chunked checkpoint
// transfer mid-stream: the follower must reject the torn image before
// installing anything, stay unseeded, and then bootstrap cleanly from
// the healthy primary on retry.
func TestBootstrapTornCheckpointRejected(t *testing.T) {
	prim, hp := newPrimary(t, roadknn.NewIMAWith, 150, 2)
	rng := rand.New(rand.NewSource(11))
	live := map[int64]bool{}
	for ts := 1; ts <= 2; ts++ { // checkpoint lands at ts 2
		postJSON(t, hp.URL+"/v1/updates", churnBatch(rng, ts, live))
		postJSON(t, hp.URL+"/v1/tick", map[string]any{})
	}

	// A proxy that forwards everything, except it truncates the checkpoint
	// body halfway under the full declared Content-Length and then kills
	// the connection — a primary dying mid-transfer.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(hp.URL + r.URL.String())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if r.URL.Path == "/v1/replication/checkpoint" && resp.StatusCode == http.StatusOK {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusOK)
			w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()    // half the body reaches the wire...
			panic(http.ErrAbortHandler) // ...then the connection dies
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer proxy.Close()

	f, _ := newFollowerNode(t, roadknn.NewIMAWith, 150, proxy.URL)
	err := f.Bootstrap()
	if err == nil {
		t.Fatal("bootstrap accepted a torn checkpoint")
	}
	if !strings.Contains(err.Error(), "torn checkpoint") {
		t.Fatalf("torn transfer surfaced as %v, want a torn-checkpoint error", err)
	}
	if f.Server().Ready() {
		t.Fatal("follower became ready from a torn checkpoint")
	}

	// The same unseeded server retries against the healthy primary.
	f2 := NewFollower(f.Server(), FollowerConfig{Primary: hp.URL})
	if err := f2.Bootstrap(); err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	if got := f2.Cursor(); got != 2 {
		t.Fatalf("re-bootstrap landed at cursor %d, want 2", got)
	}
	if got := snapBytes(f2.Server()); !bytes.Equal(got, snapBytes(prim)) {
		t.Fatal("re-bootstrapped follower differs from primary")
	}
}

// TestFollowerBackgroundTailSurvivesPrimaryRestartWindow exercises the
// retry path: transport errors back off and retry rather than killing
// the tail loop, because a primary restart looks exactly like that.
func TestFollowerTransportErrorRetries(t *testing.T) {
	prim, hp := newPrimary(t, roadknn.NewIMAWith, 150, 4)
	_ = prim
	f, _ := newFollowerNode(t, roadknn.NewIMAWith, 150, hp.URL)
	if err := f.Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	// Point the follower at a dead port: SyncOnce must error without
	// poisoning anything, and the state must stay serveable.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	fDead := NewFollower(f.Server(), FollowerConfig{Primary: dead.URL})
	if _, err := fDead.SyncOnce(0); err == nil {
		t.Fatal("sync against a dead primary succeeded")
	}
	if !f.Server().Ready() || f.Server().ReadOnly() {
		t.Fatal("transport error degraded the follower")
	}
}
