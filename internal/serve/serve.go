// Package serve exposes a monitoring engine as a concurrent HTTP/JSON
// service: batched update ingestion on the write side, epoch-versioned
// snapshot reads on the read side.
//
// The design follows the serving runtime's split exactly. One goroutine —
// the stepper — owns the engine and applies one coalesced Updates batch
// per tick (a wall-clock ticker, an explicit POST /v1/tick, or both), then
// publishes the resulting immutable Snapshot to the broker. Readers never
// touch the engine: every read route is a subscription over the broker's
// published epochs, so any number of concurrent readers poll, long-poll or
// stream results without ever blocking the pipeline. Because the Step
// pipeline is deterministic, two replicas fed the same update stream serve
// byte-identical snapshots at every epoch.
//
// Write and service endpoints:
//
//	POST /v1/updates   ingest an update batch, coalesced into the next
//	                   tick. Content negotiated: application/json (one
//	                   batch document), application/x-ndjson (one report
//	                   per line), or application/x-roadknn-updates (the
//	                   binary frame stream, see wire.go)
//	POST /v1/tick      apply pending updates now; returns the new epoch
//	GET  /v1/stats     runtime counters (epoch, steps, reads, timings, WAL)
//	GET  /healthz      readiness probe: 503 while replaying the WAL or
//	                   after a WAL failure degraded the server to
//	                   read-only, 200 once serving normally
//
// Read endpoints (read.go) — each is one transport times one encoder over
// the same subscription, and all answer from the same source, the broker's
// newest published snapshot and its ring of the last epochs' deltas: the
// newest one, plus older ones while all of them weigh no more than that
// snapshot, up to 64 epochs (what subscribers are sent is what is
// retained; no older snapshot is kept alive):
//
//	route          transport  encoder
//	/v1/snapshot   long-poll  rows JSON: the full result set
//	/v1/result     long-poll  rows JSON: the one query ?query= names
//	/v1/delta      long-poll  delta JSON, or binary frames by Accept
//	/v1/deltas     stream     delta JSON as SSE "delta" events, or a
//	                          continuous binary frame stream by Accept
//	/v1/stream     stream     rows JSON as SSE "rows" events: the full
//	                          current rows of the queries that changed
//	                          since the cursor, one event per advance
//
// All five take the same parameters: ?since=E is the subscriber's cursor
// (without it the answer is the newest snapshot — on the delta and stream
// routes a "resync" that seeds the client), ?wait_ms=N bounds a long-poll
// below Config.MaxWait, ?query= / ?queries=1,2 restrict delivery to the
// listed query ids. Accept: application/x-roadknn-delta negotiates the
// binary encoder (deltawire.go). A long-poll waits until something newer
// than the cursor is published and answers once: the snapshot, or the
// delta chain E+1..newest, or a resync when the ring no longer holds that
// chain; when the wait runs out it answers with the newest epoch and
// nothing else. (Deltas need an engine built with Options{Deltas:
// true}; without it the delta and stream routes still work but answer
// every advance with a resync.) A stream repeats that until the client
// leaves, with three rules that hold for every encoder:
//
//   - keep-alive: an idle stream gets a heartbeat every Config.MaxWait,
//     written, like every event, under a fresh DeltaSendTimeout deadline;
//   - eviction: a subscriber is dropped (delta.evicted in /v1/stats) when
//     one write misses that deadline, and for nothing else. One that lags
//     off the delta ring is resynced, which, short of 64 epochs of lag,
//     costs no more bytes than the chain it replaces;
//   - durability: an epoch reaches the broker, and with it any reader, only
//     when the WAL policy allows (under wal.SyncTick, after its tick
//     record is fsynced), although the engine's own snapshot flips at Step.
//
// With Config.WAL set, the server is crash-safe: see the wal package for the
// log and tick.go for the tick protocol that a live tick, WAL recovery and a
// follower all run. A durable primary additionally serves the log-shipping
// endpoints under /v1/replication/ that follower replicas (Config.Follower,
// driven by internal/cluster) bootstrap and tail from; see replication.go.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"roadknn"
	"roadknn/internal/graph"
	"roadknn/internal/planner"
	"roadknn/internal/wal"
)

// Config tunes a Server.
type Config struct {
	// Tick is the stepping period. Zero disables the wall-clock stepper:
	// timestamps advance only on POST /v1/tick (useful for tests and
	// deterministic replay).
	Tick time.Duration
	// MaxWait bounds long-poll waiting (default 30s).
	MaxWait time.Duration
	// MaxBodyBytes caps a POST /v1/updates body (default 8 MiB); larger
	// bodies are rejected with 413 before decoding can buffer them.
	MaxBodyBytes int64
	// MaxPending caps how many entities may sit in the ingestion batcher
	// between ticks (default 1<<20). A valid batch that leaves more pending
	// is undone and rejected whole with 429, bounding memory an untrusted
	// client can pin with updates that are never ticked. Re-reports of
	// pending entities, and deletes or ends of unknown ids, add nothing.
	MaxPending int
	// DeltaSendTimeout bounds one write to a stream subscriber (default
	// 10s). A stalled SSE or binary-stream client that cannot absorb a
	// frame within the deadline is evicted (connection closed, counted in
	// /v1/stats delta.evicted) instead of pinning a handler goroutine, and
	// the advance it was being sent, indefinitely. It is the one eviction
	// rule: a subscriber that lags off the delta ring is resynced from the
	// newest snapshot and stays connected.
	DeltaSendTimeout time.Duration

	// WAL, when set, makes the server durable: every drained batch is
	// appended to the log before the engine steps, the pending batch is
	// flushed at Close, and the server starts not-ready (every endpoint
	// but /v1/stats answers 503) until Recover has replayed the log. If
	// an append exhausts its retries the server degrades to read-only:
	// writes answer 503, reads keep serving the last published snapshot.
	// With wal.SyncTick the server additionally withholds publication
	// of each tick until its log records are durable (group commit), so
	// no client ever observes results a power cut could lose.
	WAL *wal.Log
	// CheckpointEvery, with a WAL, writes a checkpoint of every N-th tick's
	// state (0 = never) and rotates the log. Checkpoint failures are
	// recorded in /v1/stats and retried at the next interval; logging
	// continues either way. Epochs do not depend on it, so a follower —
	// which has no WAL — ignores it.
	CheckpointEvery int

	// Follower puts the server in replica mode: it has no WAL of its own,
	// rejects writes (the primary owns the update stream), starts
	// not-ready until BootstrapFollower seeds it, and advances only
	// through ApplyReplicated — the log-shipping path in internal/cluster
	// feeds it the primary's sequenced batch/tick records. Reads serve
	// from its own epoch-versioned snapshots exactly like a primary's.
	Follower bool
}

// Server drives one engine and serves it over HTTP. Create with New,
// mount Handler on any mux/listener, optionally Start the ticker, and
// Close when done.
type Server struct {
	eng roadknn.Engine
	cfg Config
	// numNodes bounds incoming node ids for edge insertions (the node set
	// is fixed for an engine's lifetime; the edge set evolves through
	// topology updates, tracked by the batcher's id simulator).
	numNodes int

	// batchMu guards the ingestion batcher; ingestion never blocks on a
	// running Step (the stepper holds batchMu only for the Drain itself).
	batchMu sync.Mutex
	batch   *Batcher

	// stepMu serializes ticks (wall-clock and HTTP-triggered); see tick.go.
	// It also guards enc, the one encoding buffer every tick's checksum,
	// verification and checkpoint image is built in.
	stepMu sync.Mutex
	enc    []byte

	// broker holds the published epochs every read route answers from; the
	// stepper publishes to it, then wakes the waiters parked on it.
	broker *broker

	// counters (atomic: written by stepper and readers concurrently).
	ingested  atomic.Int64
	steps     atomic.Int64
	reads     atomic.Int64
	stepNanos atomic.Int64
	// streamsActive counts live SSE connections (/v1/stream and
	// /v1/deltas); it returns to zero when clients disconnect, making
	// handler goroutine leaks observable in /v1/stats.
	streamsActive atomic.Int64

	// Durability state. seq is the batch sequence cursor (== the engine's
	// timestamp in serve mode), guarded by stepMu; the atomics are read by
	// handlers without it.
	seq        uint64
	ready      atomic.Bool // false while WAL recovery has not finished
	readOnly   atomic.Bool // true after an unrecoverable WAL write error
	recoveryMS atomic.Int64
	walErrMu   sync.Mutex
	walErr     string // what moved the server to read-only
	ckptErr    string // last checkpoint failure (retried next interval)

	startOnce sync.Once
	closeOnce sync.Once
	stopc     chan struct{}
	done      chan struct{}
}

// New wraps a serving engine (it must have been built with
// Options{Serving: true}; New panics otherwise, because every read
// endpoint depends on the snapshot path).
func New(eng roadknn.Engine, cfg Config) *Server {
	if eng.Snapshot() == nil {
		panic("serve: engine is not serving (build it with Options{Serving: true})")
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1 << 20
	}
	if cfg.DeltaSendTimeout <= 0 {
		cfg.DeltaSendTimeout = 10 * time.Second
	}
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		numNodes: eng.Network().G.NumNodes(),
		batch:    NewBatcher(),
		broker:   newBroker(deltaRing, eng.Snapshot()),
		stopc:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	g := eng.Network().G
	s.batch.InitTopology(g.NumEdges(), g.FreeEdgeIDs())
	// Without a WAL there is nothing to recover: the server is born ready.
	// With one, Recover must run first (even over an empty log) so clients
	// never observe the pre-replay engine. A follower is seeded by
	// BootstrapFollower instead.
	s.ready.Store(cfg.WAL == nil && !cfg.Follower)
	return s
}

// Ready reports whether the server has finished WAL recovery (always true
// without a WAL).
func (s *Server) Ready() bool { return s.ready.Load() }

// ReadOnly reports whether a WAL write failure has degraded the server to
// read-only serving.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// setReadOnly records the WAL failure and flips the server to read-only.
func (s *Server) setReadOnly(err error) {
	s.walErrMu.Lock()
	if s.walErr == "" {
		s.walErr = err.Error()
	}
	s.walErrMu.Unlock()
	s.readOnly.Store(true)
}

// Engine returns the wrapped engine.
func (s *Server) Engine() roadknn.Engine { return s.eng }

// Start launches the wall-clock stepper (no-op when Config.Tick is 0).
func (s *Server) Start() {
	s.startOnce.Do(func() {
		if s.cfg.Tick <= 0 {
			close(s.done)
			return
		}
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.cfg.Tick)
			defer t.Stop()
			for {
				select {
				case <-s.stopc:
					return
				case <-t.C:
					s.Tick()
				}
			}
		}()
	})
}

// Close stops the stepper, wakes every long-poller and streamer (they
// answer with the current snapshot and finish), and releases the engine's
// worker pool. In-flight readers keep their snapshots; new reads keep
// working off the last one. Call Close before shutting the HTTP listener
// down gracefully, so parked waiters drain instead of holding the
// shutdown open until their timeout.
// With a WAL, Close also flushes any still-pending (undrained) updates as
// a pending record — acknowledged ingestion survives a clean shutdown —
// and closes the log.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stopc) })
	s.Start() // ensure done is closed even if Start was never called
	<-s.done
	s.stepMu.Lock() // wait out an in-flight tick before closing the pool
	defer s.stepMu.Unlock()
	if w := s.cfg.WAL; w != nil {
		if s.ready.Load() && !s.readOnly.Load() {
			s.batchMu.Lock()
			u := s.batch.Preview()
			s.batchMu.Unlock()
			if len(u.Topology)+len(u.Objects)+len(u.Queries)+len(u.Edges) > 0 {
				if err := w.AppendPending(u); err != nil {
					s.setReadOnly(err)
				}
			}
		}
		w.Close()
	}
	s.eng.Close()
}

// ---- ingestion wire format ----

// batchRequest is the POST /v1/updates payload. Topology ops apply at the
// next tick before every other update kind, in the order given.
type batchRequest struct {
	Topology []topoReport   `json:"topology,omitempty"`
	Objects  []objectReport `json:"objects,omitempty"`
	Queries  []queryReport  `json:"queries,omitempty"`
	Edges    []edgeReport   `json:"edges,omitempty"`
}

// topoReport is one live network edit: {"op":"add","u":U,"v":V,"w":W}
// inserts an edge between existing nodes (the response returns the
// assigned id; Edge, when >= 0, asserts the expected id), and
// {"op":"remove","edge":E} deletes one — resident objects and stranded
// queries re-snap onto the nearest live edge.
type topoReport struct {
	Op   string  `json:"op"`
	Edge *int32  `json:"edge,omitempty"` // remove: target (required); add: optional expected-id assertion
	U    int32   `json:"u,omitempty"`
	V    int32   `json:"v,omitempty"`
	W    float64 `json:"w,omitempty"`
}

// Topology op names on the wire.
const (
	topoOpAdd    = "add"
	topoOpRemove = "remove"
)

// objectReport places object ID on an edge, or deletes it.
type objectReport struct {
	ID     int64   `json:"id"`
	Edge   int32   `json:"edge"`
	Frac   float64 `json:"frac"`
	Delete bool    `json:"delete,omitempty"`
}

// queryReport installs/moves query ID (K used on install), or ends it.
type queryReport struct {
	ID   int32   `json:"id"`
	K    int     `json:"k,omitempty"`
	Edge int32   `json:"edge"`
	Frac float64 `json:"frac"`
	End  bool    `json:"end,omitempty"`
}

// edgeReport sets an edge weight.
type edgeReport struct {
	Edge int32   `json:"edge"`
	W    float64 `json:"w"`
}

// ---- handlers ----

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/updates", s.whenReady(s.requireWritable(s.handleUpdates)))
	mux.HandleFunc("POST /v1/tick", s.whenReady(s.requireWritable(s.handleTick)))
	mux.HandleFunc("GET /v1/snapshot", s.whenReady(s.handleSnapshot))
	mux.HandleFunc("GET /v1/result", s.whenReady(s.handleResult))
	mux.HandleFunc("GET /v1/stream", s.whenReady(s.handleStream))
	mux.HandleFunc("GET /v1/delta", s.whenReady(s.handleDelta))
	mux.HandleFunc("GET /v1/deltas", s.whenReady(s.handleDeltas))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.WAL != nil && !s.cfg.Follower {
		// Log-shipping endpoints for follower replicas (see replication.go).
		mux.HandleFunc("GET /v1/replication/info", s.whenReady(s.handleReplicationInfo))
		mux.HandleFunc("GET /v1/replication/checkpoint", s.whenReady(s.handleReplicationCheckpoint))
		mux.HandleFunc("GET /v1/replication/log", s.whenReady(s.handleReplicationLog))
	}
	return mux
}

// epochHeader is the response header carrying the answering snapshot's
// epoch on read endpoints; the cluster router uses it to track how far
// each backend has advanced without extra polling.
const epochHeader = "X-Roadknn-Epoch"

// whenReady rejects requests with 503 until WAL recovery has finished:
// the pre-replay engine holds intermediate states no client should see.
func (s *Server) whenReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "recovering from write-ahead log", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// requireWritable rejects writes with 503 once a WAL failure has degraded
// the server to read-only, and always on a follower (the primary owns the
// update stream).
func (s *Server) requireWritable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Follower {
			http.Error(w, "follower replica: writes go to the primary", http.StatusServiceUnavailable)
			return
		}
		if s.readOnly.Load() {
			s.walErrMu.Lock()
			cause := s.walErr
			s.walErrMu.Unlock()
			http.Error(w, "read-only: write-ahead log failed: "+cause, http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// handleHealthz reports readiness as JSON: 503/"recovering" until WAL
// replay finishes, 503/"read-only" after a WAL failure (an orchestrator
// restart re-runs recovery, which is the only way back to writable), else
// 200/"ok".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case !s.ready.Load():
		status, code = "recovering", http.StatusServiceUnavailable
	case s.readOnly.Load():
		status, code = "read-only", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// handleUpdates negotiates the ingestion wire format by Content-Type —
// application/json (the default), application/x-ndjson, or the binary
// stream (application/x-roadknn-updates / application/octet-stream; see
// wire.go) — decodes the batch, and admits it through the shared ingest
// path. Unknown media types answer 415.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	mt := ""
	if ct := r.Header.Get("Content-Type"); ct != "" {
		var err error
		if mt, _, err = mime.ParseMediaType(ct); err != nil {
			http.Error(w, "bad Content-Type: "+err.Error(), http.StatusUnsupportedMediaType)
			return
		}
	}
	var decode func(*wireScratch) error
	switch mt {
	case "", "application/json":
		decode = (*wireScratch).decodeJSON
	case "application/x-ndjson":
		decode = (*wireScratch).decodeNDJSON
	case "application/x-roadknn-updates", "application/octet-stream":
		decode = (*wireScratch).decodeWire
	default:
		http.Error(w, "unsupported Content-Type "+mt+
			" (want application/json, application/x-ndjson or application/x-roadknn-updates)",
			http.StatusUnsupportedMediaType)
		return
	}
	sc := getWireScratch(body)
	defer putWireScratch(sc)
	if err := decode(sc); err != nil {
		failDecode(w, err)
		return
	}
	s.ingest(w, &sc.req)
}

// failDecode answers a batch decode failure: body-size overruns with 413,
// malformed input with 400.
func failDecode(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("batch exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
}

// ingest admits one decoded batch: apply it to the batcher report by
// report, undo it whole if a report is invalid (400) or the pending set
// ends above MaxPending (429), acknowledge. req is only read.
func (s *Server) ingest(w http.ResponseWriter, req *batchRequest) {
	n := len(req.Topology) + len(req.Objects) + len(req.Queries) + len(req.Edges)
	s.batchMu.Lock()
	s.batch.openLog()
	addedEdges, err := s.admit(req)
	if err != nil {
		s.batch.rollback()
		s.batchMu.Unlock()
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Bound batcher memory between ticks. The count is exact: re-reports of
	// pending entities overwrite in place, so steady-state move traffic over
	// a large fleet is never throttled while the pending set stays capped.
	if s.batch.Pending() > s.cfg.MaxPending {
		s.batch.rollback()
		s.batchMu.Unlock()
		http.Error(w, fmt.Sprintf("too many pending updates (cap %d); tick or retry later", s.cfg.MaxPending),
			http.StatusTooManyRequests)
		return
	}
	s.batch.closeLog()
	pending := s.batch.Pending()
	s.batchMu.Unlock()
	s.ingested.Add(int64(n))
	resp := map[string]any{"accepted": n, "pending": pending}
	if addedEdges != nil {
		// The ids the batch's insertions will be assigned at the next tick,
		// in op order.
		resp["edges"] = addedEdges
	}
	writeJSON(w, resp)
}

// admit applies req to the batcher through its checked mutators, topology
// ops first, then objects, queries and edge weights, each in request order,
// so each report is checked against the state the reports before it left.
// Two checks are facts of the wire, made here: an object id must fit the
// engine's int32, and an insertion's expected id must be the one it is
// assigned. It returns the ids assigned to the insertions, or the first
// invalid report's error, after which the caller rolls the batcher back.
// Caller holds batchMu with the batcher's undo log open.
func (s *Server) admit(req *batchRequest) ([]int64, error) {
	b := s.batch
	var added []int64
	for i, tp := range req.Topology {
		var err error
		switch tp.Op {
		case topoOpRemove:
			if tp.Edge == nil {
				err = errors.New(`remove requires "edge"`)
			} else {
				err = b.RemoveEdge(roadknn.EdgeID(*tp.Edge))
			}
		case topoOpAdd:
			if err = graph.CheckEdge(s.numNodes, graph.NodeID(tp.U), graph.NodeID(tp.V), tp.W); err != nil {
				break
			}
			id := b.AddEdge(roadknn.NodeID(tp.U), roadknn.NodeID(tp.V), tp.W)
			if tp.Edge != nil && roadknn.EdgeID(*tp.Edge) != id {
				err = fmt.Errorf("insertion will be assigned edge %d, not %d", id, *tp.Edge)
			}
			added = append(added, int64(id))
		default:
			err = fmt.Errorf("unknown op %q (want %q or %q)", tp.Op, topoOpAdd, topoOpRemove)
		}
		if err != nil {
			return nil, fmt.Errorf("topology[%d]: %w", i, err)
		}
	}
	for _, o := range req.Objects {
		// A wire id that does not survive the conversion would alias another.
		if o.ID != int64(int32(o.ID)) {
			return nil, fmt.Errorf("object %d: id outside the 32-bit range", o.ID)
		}
		if o.Delete {
			b.DeleteObject(roadknn.ObjectID(o.ID))
		} else if err := b.Object(roadknn.ObjectID(o.ID), roadknn.Position{Edge: roadknn.EdgeID(o.Edge), Frac: o.Frac}); err != nil {
			return nil, fmt.Errorf("object %d: %w", o.ID, err)
		}
	}
	for _, q := range req.Queries {
		if q.End {
			b.EndQuery(roadknn.QueryID(q.ID))
		} else if err := b.Query(roadknn.QueryID(q.ID), q.K, roadknn.Position{Edge: roadknn.EdgeID(q.Edge), Frac: q.Frac}); err != nil {
			return nil, fmt.Errorf("query %d: %w", q.ID, err)
		}
	}
	for _, e := range req.Edges {
		if err := b.Edge(roadknn.EdgeID(e.Edge), e.W); err != nil {
			return nil, fmt.Errorf("edge update: %w", err)
		}
	}
	return added, nil
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	snap := s.Tick()
	writeJSON(w, map[string]any{"epoch": snap.Epoch(), "timestamp": snap.Timestamp(), "queries": snap.Len()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Like every read route, stats answers from the broker: the engine's own
	// snapshot flips at Step, before the durability policy lets it out.
	snap, ringEpochs, ringBytes := s.broker.weight()
	steps := s.steps.Load()
	var avgMs float64
	if steps > 0 {
		avgMs = float64(s.stepNanos.Load()) / float64(steps) / 1e6
	}
	role := "primary"
	if s.cfg.Follower {
		role = "follower"
	}
	out := map[string]any{
		"engine":    s.eng.Name(),
		"role":      role,
		"epoch":     snap.Epoch(),
		"timestamp": snap.Timestamp(),
		"queries":   snap.Len(),
		// snapshot_crc is the IEEE CRC32 of the current snapshot's canonical
		// encoding — the cross-process convergence check: a follower caught
		// up to the primary's epoch must report the identical value.
		"snapshot_crc":   snap.CRC32(),
		"steps":          steps,
		"avg_step_ms":    avgMs,
		"ingested":       s.ingested.Load(),
		"reads":          s.reads.Load(),
		"streams_active": s.streamsActive.Load(),
		"delta": map[string]any{
			"ring": deltaRing,
			// What retention costs right now: the epochs whose deltas are
			// resident and the sum of their encoded sizes, which exceeds
			// snapshot_bytes (head's encoded size) only when the ring holds
			// the newest epoch alone.
			"ring_epochs":    ringEpochs,
			"ring_bytes":     ringBytes,
			"snapshot_bytes": snap.EncodedLen(),
			"epoch":          snap.Epoch(),
			"deltas_out":     s.broker.deltasOut.Load(),
			"resyncs":        s.broker.resyncs.Load(),
			"evicted":        s.broker.evicted.Load(),
		},
	}
	if sp, ok := s.eng.(planner.StatsProvider); ok {
		// The adaptive engine's self-description: groups, placements,
		// cumulative migrations and the cost model's latest per-group
		// estimates (published atomically at each re-plan).
		out["planner"] = sp.PlannerStats()
	}
	if w2 := s.cfg.WAL; w2 != nil {
		s.batchMu.Lock()
		pending := s.batch.Pending()
		s.batchMu.Unlock()
		s.walErrMu.Lock()
		walErr, ckptErr := s.walErr, s.ckptErr
		s.walErrMu.Unlock()
		out["wal"] = map[string]any{
			"last_seq":         w2.LastSeq(),
			"checkpoint_epoch": w2.CheckpointEpoch(),
			"checkpoint_stamp": w2.CheckpointStamp(),
			"lag":              w2.LastSeq() - w2.CheckpointStamp(),
			"pending":          pending,
			"recovering":       !s.ready.Load(),
			"recovery_ms":      s.recoveryMS.Load(),
			"read_only":        s.readOnly.Load(),
			"error":            walErr,
			"checkpoint_error": ckptErr,
		}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
