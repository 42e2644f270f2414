package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"roadknn"
	"roadknn/internal/planner"
	"roadknn/internal/wal"
)

// newWALServer builds a manual-tick durable server over the given FS.
func newWALServer(t *testing.T, fs wal.FS, checkpointEvery int) (*Server, *wal.Log, *wal.Recovery) {
	t.Helper()
	net := roadknn.GenerateNetwork(150, 3)
	eng := roadknn.NewIMAWith(net, roadknn.Options{Workers: 1, Serving: true})
	l, rec, err := wal.Open(fs, wal.Options{Retries: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		eng.Close()
		t.Fatalf("wal open: %v", err)
	}
	s := New(eng, Config{WAL: l, CheckpointEvery: checkpointEvery})
	return s, l, rec
}

// ingest feeds reports straight into the server's batcher, as the HTTP
// handler would after validation.
func ingest(s *Server, fn func(b *Batcher)) {
	s.batchMu.Lock()
	fn(s.batch)
	s.batchMu.Unlock()
}

// scriptTick applies the deterministic workload for tick t: inserts,
// moves, deletes, query churn (including an end+reinstall) and edge
// weight changes, all pure functions of t.
func scriptTick(s *Server, t int) {
	ingest(s, func(b *Batcher) {
		id := roadknn.ObjectID(t % 6)
		b.Object(id, roadknn.Position{Edge: roadknn.EdgeID((t * 13) % 100), Frac: float64(t%9) / 9})
		b.Object(roadknn.ObjectID(100+t), roadknn.Position{Edge: roadknn.EdgeID((t * 7) % 100), Frac: 0.5})
		if t%3 == 0 && t > 3 {
			b.DeleteObject(roadknn.ObjectID(100 + t - 3))
		}
		if t == 1 {
			b.Query(1, 3, roadknn.Position{Edge: 5, Frac: 0.25})
			b.Query(2, 2, roadknn.Position{Edge: 40, Frac: 0.75})
		}
		if t == 4 { // end + reinstall with a new k within one tick
			b.EndQuery(1)
			b.Query(1, 4, roadknn.Position{Edge: 9, Frac: 0.1})
		}
		if t%2 == 0 {
			b.Query(2, 0, roadknn.Position{Edge: roadknn.EdgeID((t * 11) % 100), Frac: 0.3})
		}
		if t%4 == 1 {
			b.Edge(roadknn.EdgeID(t%30), 1.5+float64(t)/10)
		}
		// Topology churn: edge 97 dies on even ticks and the next odd tick's
		// insertion reuses its id off the freelist, so every WAL/checkpoint
		// replay must reproduce the id assignment exactly.
		if t >= 2 {
			if t%2 == 0 {
				b.RemoveEdge(97)
			} else {
				b.AddEdge(roadknn.NodeID((t*3)%40), roadknn.NodeID((t*3+7)%40), 1.2+float64(t%4))
			}
		}
	})
	s.Tick()
}

func snapBytes(s *Server) []byte { return s.eng.Snapshot().AppendBinary(nil) }

func TestServeWALRoundTrip(t *testing.T) {
	mem := wal.NewMemFS()
	s, _, rec := newWALServer(t, mem, 4)
	if _, err := s.Recover(rec); err != nil {
		t.Fatalf("recover empty: %v", err)
	}
	const ticks = 10
	for i := 1; i <= ticks; i++ {
		scriptTick(s, i)
	}
	want := snapBytes(s)
	s.Close()

	s2, _, rec2 := newWALServer(t, mem, 4)
	defer s2.Close()
	st, err := s2.Recover(rec2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.CheckpointStamp != 8 {
		t.Fatalf("recovered from checkpoint stamp %d, want 8", st.CheckpointStamp)
	}
	if st.ReplayedBatches != 2 {
		t.Fatalf("replayed %d batches, want 2", st.ReplayedBatches)
	}
	if st.VerifiedTicks != 2 {
		t.Fatalf("verified %d ticks, want 2", st.VerifiedTicks)
	}
	if got := snapBytes(s2); !bytes.Equal(got, want) {
		t.Fatal("recovered snapshot differs from the pre-crash one")
	}
	// The recovered server keeps serving: one more scripted tick must work.
	scriptTick(s2, ticks+1)
	if s2.eng.Snapshot().Timestamp() != ticks+1 {
		t.Fatalf("post-recovery tick at stamp %d, want %d", s2.eng.Snapshot().Timestamp(), ticks+1)
	}
}

// TestCheckpointTickPublishesOneEpoch: a tick advances the epoch by exactly
// one whether or not it writes a checkpoint, the checkpoint holds that
// tick's own epoch, and a server recovering from it with another cadence —
// here none — reaches the same bytes.
func TestCheckpointTickPublishesOneEpoch(t *testing.T) {
	mem := wal.NewMemFS()
	s, l, rec := newWALServer(t, mem, 3)
	if _, err := s.Recover(rec); err != nil {
		t.Fatalf("recover empty: %v", err)
	}
	base := s.eng.Snapshot().Epoch()
	const ticks = 7 // across the checkpoints at ticks 3 and 6
	for i := 1; i <= ticks; i++ {
		scriptTick(s, i)
		if got := s.eng.Snapshot().Epoch(); got != base+uint64(i) {
			t.Fatalf("after %d ticks the epoch advanced by %d", i, got-base)
		}
	}
	if l.CheckpointStamp() != 6 || l.CheckpointEpoch() != base+6 {
		t.Fatalf("checkpoint at stamp %d epoch %d, want stamp 6 epoch %d", l.CheckpointStamp(), l.CheckpointEpoch(), base+6)
	}
	want := snapBytes(s)
	s.Close()

	s2, _, rec2 := newWALServer(t, mem, 0)
	defer s2.Close()
	if st, err := s2.Recover(rec2); err != nil || st.CheckpointStamp != 6 {
		t.Fatalf("recover: %+v, %v", st, err)
	}
	if got := snapBytes(s2); !bytes.Equal(got, want) {
		t.Fatal("recovered snapshot differs from the pre-crash one")
	}
}

func TestServeCloseFlushesPending(t *testing.T) {
	mem := wal.NewMemFS()
	s, _, rec := newWALServer(t, mem, 0)
	if _, err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	scriptTick(s, 1)
	scriptTick(s, 2)
	// Ingest without ticking, then shut down: the updates must survive.
	// scriptTick(2) removed edge 97, so the pending insertion here must be
	// re-assigned id 97 off the freelist when the flushed batch replays.
	var pendingEdge roadknn.EdgeID
	ingest(s, func(b *Batcher) {
		b.Object(77, roadknn.Position{Edge: 3, Frac: 0.5})
		b.Query(9, 2, roadknn.Position{Edge: 3, Frac: 0.4})
		pendingEdge = b.AddEdge(10, 20, 2.5)
	})
	if pendingEdge != 97 {
		t.Fatalf("pending insertion assigned edge %d, want the freed 97", pendingEdge)
	}
	s.Close()

	s2, _, rec2 := newWALServer(t, mem, 0)
	defer s2.Close()
	st, err := s2.Recover(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.PendingReplayed {
		t.Fatal("pending batch not replayed")
	}
	// The flushed updates are pending, not applied — exactly like before
	// the shutdown. The next tick applies them.
	if _, ok := s2.eng.Snapshot().Lookup(9); ok {
		t.Fatal("pending query applied before any tick")
	}
	snap := s2.Tick()
	if res, ok := snap.Lookup(9); !ok || len(res) == 0 {
		t.Fatalf("flushed pending query lost: ok=%v res=%v", ok, res)
	}
	if !s2.batch.topoAlive(97) {
		t.Fatal("flushed pending edge insertion lost")
	}
}

func TestServeWALFailureReadOnly(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	s, _, rec := newWALServer(t, ffs, 0)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()
	if _, err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	scriptTick(s, 1)
	want := snapBytes(s)

	// Exhaust the retry budget: the server must degrade, not lose state.
	ffs.FailNextWrites(100)
	ingest(s, func(b *Batcher) { b.Object(50, roadknn.Position{Edge: 1, Frac: 0.5}) })
	s.Tick()
	if !s.ReadOnly() {
		t.Fatal("server not read-only after WAL failure")
	}
	if got := snapBytes(s); !bytes.Equal(got, want) {
		t.Fatal("engine advanced past the last logged batch")
	}

	// Writes answer 503, reads keep working, healthz says read-only.
	if code, _ := get(t, hs.URL+"/v1/snapshot"); code != 200 {
		t.Fatalf("read during read-only: %d", code)
	}
	code, body := rawPost(t, hs.URL+"/v1/tick", "")
	if code != 503 || !strings.Contains(body, "read-only") {
		t.Fatalf("tick during read-only: %d %q", code, body)
	}
	code, body = rawPost(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5}]}`)
	if code != 503 {
		t.Fatalf("updates during read-only: %d %q", code, body)
	}
	if code, _ := get(t, hs.URL+"/healthz"); code != 503 {
		t.Fatalf("healthz during read-only: %d", code)
	}
	if _, stats := get(t, hs.URL+"/v1/stats"); stats["wal"].(map[string]any)["read_only"] != true {
		t.Fatalf("stats do not report read_only: %v", stats["wal"])
	}
}

// TestSyncTickFailedTickIsNotPublished: under wal.SyncTick the batch's
// fsync is deferred to its tick record, so a tick whose AppendTick failed
// is one a power cut could lose. The server must go read-only without ever
// showing it: /v1/tick acknowledges the last durable epoch and every read
// keeps answering with it.
func TestSyncTickFailedTickIsNotPublished(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	l, rec, err := wal.Open(ffs, wal.Options{Sync: wal.SyncTick, Retries: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	eng := roadknn.NewIMAWith(roadknn.GenerateNetwork(150, 3), roadknn.Options{Workers: 1, Serving: true})
	s := New(eng, Config{WAL: l})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()
	if _, err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	scriptTick(s, 1)
	durable := s.broker.newest().Epoch()

	// The batch record is the one write that still succeeds; the tick record
	// after it fails, through every retry. (FailNextWrites cannot be armed
	// between the two appends of one Tick; the crash mode can.)
	ffs.CrashAfterWrites(ffs.Writes()+1, 0)
	ingest(s, func(b *Batcher) { b.Object(50, roadknn.Position{Edge: 1, Frac: 0.5}) })
	if ack := post(t, hs.URL+"/v1/tick", ""); uint64(ack["epoch"].(float64)) != durable {
		t.Fatalf("tick whose record failed acknowledged %v, want the durable epoch %d", ack, durable)
	}
	if !s.ReadOnly() {
		t.Fatal("server not read-only after the tick record failed")
	}
	if got := s.eng.Snapshot().Epoch(); got != durable+1 {
		t.Fatalf("engine at epoch %d, want %d: the test did not fail the tick after its step", got, durable+1)
	}
	for _, path := range []string{"/v1/snapshot", "/v1/delta", "/v1/stats"} {
		if _, body := get(t, hs.URL+path); uint64(body["epoch"].(float64)) != durable {
			t.Errorf("GET %s shows epoch %v, want the durable %d", path, body["epoch"], durable)
		}
	}
}

func rawPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// TestServeWALRoundTripLargestK: the largest k admission accepts is the
// largest the WAL and the checkpoint can carry (int32), so a query installed
// with it over HTTP recovers byte-identically, from the log alone and from a
// checkpoint plus its tail.
func TestServeWALRoundTripLargestK(t *testing.T) {
	for _, every := range []int{0, 2} {
		mem := wal.NewMemFS()
		s, _, rec := newWALServer(t, mem, every)
		if _, err := s.Recover(rec); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		body := fmt.Sprintf(`{"queries":[{"id":3,"k":%d,"edge":7,"frac":0.5}]}`, math.MaxInt32)
		if code, msg := rawPost(t, hs.URL+"/v1/updates", body); code != http.StatusOK {
			t.Fatalf("k = MaxInt32 rejected: %d %s", code, msg)
		}
		for i := 1; i <= 3; i++ {
			scriptTick(s, i)
		}
		_, qs, _ := s.batch.CheckpointState()
		if i := slices.IndexFunc(qs, func(q wal.QueryState) bool { return q.ID == 3 }); i < 0 || qs[i].K != math.MaxInt32 {
			t.Fatalf("checkpoint state holds queries %+v", qs)
		}
		want := snapBytes(s)
		hs.Close()
		s.Close()

		s2, _, rec2 := newWALServer(t, mem, every)
		if _, err := s2.Recover(rec2); err != nil {
			t.Fatalf("checkpoint every %d: recover: %v", every, err)
		}
		if !s2.Ready() || !bytes.Equal(snapBytes(s2), want) {
			t.Fatalf("checkpoint every %d: recovered snapshot differs from the pre-crash one", every)
		}
		s2.Close()
	}
}

func TestServeHealthzRecoveryTransition(t *testing.T) {
	mem := wal.NewMemFS()
	s1, _, rec1 := newWALServer(t, mem, 0)
	if _, err := s1.Recover(rec1); err != nil {
		t.Fatal(err)
	}
	scriptTick(s1, 1)
	s1.Close()

	s2, _, rec2 := newWALServer(t, mem, 0)
	hs := httptest.NewServer(s2.Handler())
	defer hs.Close()
	defer s2.Close()

	// Before Recover: not ready. healthz and every data endpoint say 503.
	code, _ := get(t, hs.URL+"/healthz")
	if code != 503 {
		t.Fatalf("healthz before recovery: %d, want 503", code)
	}
	if code, _ := get(t, hs.URL+"/v1/snapshot"); code != 503 {
		t.Fatalf("snapshot before recovery: %d, want 503", code)
	}
	if code, _ := rawPost(t, hs.URL+"/v1/tick", ""); code != 503 {
		t.Fatalf("tick before recovery: %d, want 503", code)
	}

	if _, err := s2.Recover(rec2); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, hs.URL+"/healthz")
	if code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz after recovery: %d %v", code, body)
	}
	if code, _ := get(t, hs.URL+"/v1/snapshot"); code != 200 {
		t.Fatalf("snapshot after recovery: %d", code)
	}
}

func TestServeRecoverRejectsWrongNetwork(t *testing.T) {
	// The log's network has 171 edges; the wrong ones have more and fewer,
	// so the checkpoint lists edge ids past the smaller one's last.
	for _, nodes := range []int{150, 120} {
		mem := wal.NewMemFS()
		s1, _, rec1 := newWALServer(t, mem, 2)
		if _, err := s1.Recover(rec1); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			scriptTick(s1, i)
		}
		s1.Close()

		// Same log, different network: replay must detect the divergence
		// instead of silently serving wrong results.
		eng := roadknn.NewIMAWith(roadknn.GenerateNetwork(nodes, 99), roadknn.Options{Workers: 1, Serving: true})
		l, rec2, err := wal.Open(mem, wal.Options{})
		if err != nil {
			eng.Close()
			t.Fatal(err)
		}
		s2 := New(eng, Config{WAL: l})
		if _, err := s2.Recover(rec2); err == nil {
			t.Fatalf("%d nodes: recovery against the wrong network succeeded", nodes)
		} else if !strings.Contains(err.Error(), "network file") {
			t.Fatalf("%d nodes: unexpected recovery error: %v", nodes, err)
		}
		if s2.Ready() {
			t.Fatalf("%d nodes: server became ready despite failed recovery", nodes)
		}
		s2.Close()
	}
}

// TestServeRecoverFreshEdgeOnWrongNetwork logs a road insertion that takes
// a fresh edge id (171, one past the log's network) and recovers against a
// network with fewer edges, where the same insertion is assigned another
// id. Recovery must return its "network file" error, not panic in the
// engine's id check.
func TestServeRecoverFreshEdgeOnWrongNetwork(t *testing.T) {
	mem := wal.NewMemFS()
	s1, _, rec1 := newWALServer(t, mem, 0)
	if _, err := s1.Recover(rec1); err != nil {
		t.Fatal(err)
	}
	var id roadknn.EdgeID
	ingest(s1, func(b *Batcher) {
		b.Object(1, roadknn.Position{Edge: 5, Frac: 0.5})
		id = b.AddEdge(0, 7, 2)
	})
	s1.Tick()
	s1.Close()
	if n := roadknn.GenerateNetwork(150, 3).G.NumEdges(); int(id) != n {
		t.Fatalf("the insertion took edge %d, want the fresh id %d", id, n)
	}

	eng := roadknn.NewIMAWith(roadknn.GenerateNetwork(120, 99), roadknn.Options{Workers: 1, Serving: true})
	l, rec2, err := wal.Open(mem, wal.Options{})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	s2 := New(eng, Config{WAL: l})
	defer s2.Close()
	if _, err := s2.Recover(rec2); err == nil {
		t.Fatal("recovery against the wrong network succeeded")
	} else if !strings.Contains(err.Error(), "network file") {
		t.Fatalf("unexpected recovery error: %v", err)
	} else {
		t.Log(err)
	}
	if s2.Ready() {
		t.Fatal("server became ready despite failed recovery")
	}
}

// newAutoEngine builds the adaptive engine for the migration-boundary
// crash test: PlanEvery 3 makes the in-step re-plans land exactly on the
// CheckpointEvery-3 checkpoint boundaries, the adversarial alignment.
func newAutoEngine() roadknn.Engine {
	return roadknn.NewAutoWith(roadknn.GenerateNetwork(150, 3), roadknn.Options{
		Workers: 1, Serving: true,
		Planner: roadknn.PlannerOptions{PlanEvery: 3},
	})
}

// autoScriptTick is the deterministic workload for the AUTO crash test:
// six k=3 queries packed onto one edge (a group the cost model must hand
// to GMA at the first re-plan) moving every tick, two sparse queries that
// stay IMA, plus object churn, edge updates and the freelist-cycling
// topology edit of the base script. Pure function of t.
func autoScriptTick(s *Server, t int) {
	ingest(s, func(b *Batcher) {
		b.Object(roadknn.ObjectID(t%6), roadknn.Position{Edge: roadknn.EdgeID((t * 13) % 100), Frac: float64(t%9) / 9})
		b.Object(roadknn.ObjectID(100+t), roadknn.Position{Edge: roadknn.EdgeID((t * 7) % 100), Frac: 0.5})
		if t%3 == 0 && t > 3 {
			b.DeleteObject(roadknn.ObjectID(100 + t - 3))
		}
		if t == 1 {
			for i := 1; i <= 6; i++ { // the dense group: one shared edge
				b.Query(roadknn.QueryID(i), 3, roadknn.Position{Edge: 5, Frac: float64(i) / 8})
			}
			b.Query(10, 2, roadknn.Position{Edge: 60, Frac: 0.3})
			b.Query(11, 2, roadknn.Position{Edge: 90, Frac: 0.7})
		} else {
			for i := 1; i <= 6; i++ { // dense and agile: moves every tick
				b.Query(roadknn.QueryID(i), 0, roadknn.Position{Edge: 5, Frac: float64((t*7+i*3)%9) / 9})
			}
			if t%2 == 0 {
				b.Query(10, 0, roadknn.Position{Edge: 60, Frac: float64(t%5) / 5})
			}
		}
		if t%4 == 1 {
			b.Edge(roadknn.EdgeID(t%30), 1.5+float64(t)/10)
		}
		if t >= 2 {
			if t%2 == 0 {
				b.RemoveEdge(97)
			} else {
				b.AddEdge(roadknn.NodeID((t*3)%40), roadknn.NodeID((t*3+7)%40), 1.2+float64(t%4))
			}
		}
	})
	s.Tick()
}

// crashCase is one engine's row of the crash-recovery property: how to build
// it, the deterministic per-tick script that drives it, and what the
// reference run must have exercised for the row to mean anything.
type crashCase struct {
	name    string
	mk      func() roadknn.Engine
	script  func(s *Server, tick int)
	ticks   int
	premise func(t *testing.T, ref *Server)
}

func staticCrashCase(name string, mk func(*roadknn.Network, roadknn.Options) roadknn.Engine) crashCase {
	return crashCase{
		name: name,
		mk: func() roadknn.Engine {
			return mk(roadknn.GenerateNetwork(150, 3), roadknn.Options{Workers: 1, Serving: true})
		},
		script: scriptTick,
		ticks:  10,
	}
}

// crashCases is the engine table of the crash-recovery tests. AUTO runs a
// workload that forces a group migration exactly at the checkpoint boundary
// (PlanEvery == CheckpointEvery == 3): a replica recovered from any torn
// prefix must publish the same bytes whatever placements it starts from —
// including when groups migrated IMA->GMA just before the crash.
var crashCases = []crashCase{
	staticCrashCase("IMA", roadknn.NewIMAWith),
	staticCrashCase("GMA", roadknn.NewGMAWith),
	staticCrashCase("OVH", roadknn.NewOVHWith),
	{
		name: "AUTO", mk: newAutoEngine, script: autoScriptTick, ticks: 8,
		premise: func(t *testing.T, ref *Server) {
			st := ref.eng.(planner.StatsProvider).PlannerStats()
			if st.Migrations == 0 || st.QueriesGMA == 0 {
				t.Fatalf("reference run never migrated to GMA: %+v", st)
			}
		},
	},
}

const crashCheckpointEvery = 3

// open builds the case's durable manual-tick server over fs. A nil server
// means the store could not even be opened (the crash hit the segment
// header): nothing was ever served.
func (c crashCase) open(t *testing.T, fs wal.FS) (*Server, *wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(fs, wal.Options{Retries: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		return nil, nil
	}
	return New(c.mk(), Config{WAL: l, CheckpointEvery: crashCheckpointEvery}), rec
}

// reference runs the script uncrashed and returns the snapshot bytes after
// every tick and the number of WAL writes the run made.
func (c crashCase) reference(t *testing.T) (snaps [][]byte, writes int) {
	t.Helper()
	ffs := wal.NewFaultFS(wal.NewMemFS())
	ref, rec := c.open(t, ffs)
	if _, err := ref.Recover(rec); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, snapBytes(ref))
	for i := 1; i <= c.ticks; i++ {
		c.script(ref, i)
		snaps = append(snaps, snapBytes(ref))
	}
	if c.premise != nil {
		c.premise(t, ref)
	}
	writes = ffs.Writes()
	ref.Close()
	if writes < 2*c.ticks {
		t.Fatalf("%s: implausible write count %d", c.name, writes)
	}
	return snaps, writes
}

// crashAt runs the script over a store that dies at WAL write n, recovers
// from the torn disk image, and checks the recovered server bit-identical
// to the uncrashed reference at the recovered stamp and again after
// resuming the script to its end.
func (c crashCase) crashAt(t *testing.T, n int, refSnaps [][]byte) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	ffs.CrashAfterWrites(n, n%7) // vary the torn-byte count
	if s, rec := c.open(t, ffs); s != nil {
		if _, err := s.Recover(rec); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= c.ticks; i++ {
			c.script(s, i) // ticks after the crash no-op (read-only)
		}
		s.Close()
	}
	if !ffs.Crashed() {
		t.Fatalf("crash at write %d never fired", n)
	}

	s2, rec2 := c.open(t, mem)
	if s2 == nil {
		t.Fatal("open after crash failed")
	}
	defer s2.Close()
	st, err := s2.Recover(rec2)
	if err != nil {
		t.Fatalf("recover after crash at write %d: %v", n, err)
	}
	stamp := int(rec2.LastSeq())
	if stamp > c.ticks {
		t.Fatalf("recovered stamp %d past the script", stamp)
	}
	if got := snapBytes(s2); !bytes.Equal(got, refSnaps[stamp]) {
		t.Fatalf("recovered snapshot at stamp %d differs from the uncrashed replica (replayed %d batches)",
			stamp, st.ReplayedBatches)
	}
	// Resume the script where the log left off; the end state must match
	// the replica that never crashed.
	for i := stamp + 1; i <= c.ticks; i++ {
		c.script(s2, i)
	}
	if got := snapBytes(s2); !bytes.Equal(got, refSnaps[c.ticks]) {
		t.Fatalf("resumed run diverged from the uncrashed replica after crash at write %d", n)
	}
}

// runCrashCases is the fault-injection property test: each case's script is
// crashed at every WAL write boundary of its reference run (with varying
// torn-byte counts), recovered, verified, resumed and verified again.
func runCrashCases(t *testing.T, cases []crashCase) {
	refSnaps := make([][][]byte, len(cases))
	writes := make([]int, len(cases))
	for i, c := range cases {
		refSnaps[i], writes[i] = c.reference(t)
	}
	for n := 0; n < slices.Max(writes); n++ {
		t.Run(fmt.Sprintf("crash-at-write-%d", n), func(t *testing.T) {
			for i, c := range cases {
				if n < writes[i] {
					t.Run(c.name, func(t *testing.T) { c.crashAt(t, n, refSnaps[i]) })
				}
			}
		})
	}
}

// The table is split over two test functions only because the tests at the
// floor are named after them: the static engines, then AUTO.
func TestServeCrashRecoveryDeterministicAtEveryBoundary(t *testing.T) {
	runCrashCases(t, crashCases[:3])
}

func TestServeCrashRecoveryAutoAtMigrationBoundary(t *testing.T) {
	runCrashCases(t, crashCases[3:])
}

// TestRecoverWeightReportOnRemovedEdge: a tick may log a weight report for
// an edge that a later request in the same tick removed; the engine drops
// the report. Recovery feeds the logged batch back through Batcher.Replay,
// which applies the topology section first, so it must not re-check the
// edge's liveness. The batch is recovered twice: re-queued from the pending
// record a shutdown flushed, and replayed from the log after it was ticked.
// Both times the batch's WAL bytes and the snapshot must be the pre-crash
// run's.
func TestRecoverWeightReportOnRemovedEdge(t *testing.T) {
	const e = 41
	// admitWeightThenRemoval admits the two requests through the HTTP path
	// after the first scripted tick and returns the pending batch's WAL bytes.
	admitWeightThenRemoval := func(s *Server, rec *wal.Recovery) []byte {
		t.Helper()
		if _, err := s.Recover(rec); err != nil {
			t.Fatal(err)
		}
		scriptTick(s, 1)
		for _, req := range []*batchRequest{
			{Edges: []edgeReport{{Edge: e, W: 9}}},
			{Topology: []topoReport{{Op: topoOpRemove, Edge: i32ptr(e)}}},
		} {
			rec := httptest.NewRecorder()
			if s.ingest(rec, req); rec.Code != http.StatusOK {
				t.Fatalf("request rejected: %d %s", rec.Code, rec.Body)
			}
		}
		return wal.EncodeRecords(nil, []wal.BatchRecord{{Seq: 2, Updates: s.batch.Preview()}})
	}
	ref, _, rec := newWALServer(t, wal.NewMemFS(), 0)
	want := admitWeightThenRemoval(ref, rec)
	if u := ref.batch.Preview(); len(u.Edges) != 1 || len(u.Topology) != 1 {
		t.Fatalf("premise: the tick holds %+v, want one weight report and one removal", u)
	}
	ref.Tick()
	wantSnap, wantCRC := snapBytes(ref), ref.eng.Snapshot().CRC32()
	ref.Close()

	mem := wal.NewMemFS()
	s, _, rec1 := newWALServer(t, mem, 0)
	admitWeightThenRemoval(s, rec1)
	s.Close() // flushes the pending batch

	s2, _, rec2 := newWALServer(t, mem, 0)
	if st, err := s2.Recover(rec2); err != nil || !st.PendingReplayed {
		t.Fatalf("recover: %+v, %v", st, err)
	}
	if got := wal.EncodeRecords(nil, []wal.BatchRecord{{Seq: 2, Updates: s2.batch.Preview()}}); !bytes.Equal(got, want) {
		t.Fatal("the re-queued batch differs from the pre-crash one")
	}
	s2.Tick()
	s2.Close()

	s3, _, rec3 := newWALServer(t, mem, 0)
	defer s3.Close()
	st, err := s3.Recover(rec3)
	if err != nil || st.VerifiedTicks != 2 {
		t.Fatalf("recover: %+v, %v", st, err)
	}
	logged := rec3.Batches[1]
	if got := wal.EncodeRecords(nil, []wal.BatchRecord{{Seq: logged.Seq, Updates: logged.Updates}}); !bytes.Equal(got, want) {
		t.Fatal("the logged batch differs from the pre-crash one")
	}
	if !bytes.Equal(snapBytes(s3), wantSnap) || s3.eng.Snapshot().CRC32() != wantCRC {
		t.Fatal("recovered snapshot differs from the pre-crash one")
	}
}
