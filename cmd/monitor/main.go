// Command monitor runs a continuous k-NN monitoring server over a network
// file (produced by cmd/netgen) in one of two modes:
//
// Serve mode (-serve) exposes the concurrent serving runtime over
// HTTP/JSON: batched update ingestion, epoch-versioned snapshot reads,
// long-polling and server-sent-event streaming, backed by an engine with
// the snapshot read path and persistent worker pool enabled:
//
//	netgen -edges 1000 -o net.json
//	monitor -net net.json -engine gma -serve 127.0.0.1:8080 -tick 100ms
//
//	curl -X POST :8080/v1/updates -d '{"objects":[{"id":1,"edge":0,"frac":0.5}],
//	                                   "queries":[{"id":7,"k":2,"edge":0,"frac":0.1}]}'
//	curl -X POST :8080/v1/tick            # manual timestamp (with -tick 0)
//	curl ':8080/v1/snapshot'              # all results, one consistent epoch
//	curl ':8080/v1/result?query=7&since=4&wait_ms=2000'   # long-poll
//	curl ':8080/v1/stream?query=7'        # server-sent events
//	curl ':8080/v1/stats'  ;  curl ':8080/healthz'
//
// With -wal-dir the serve mode is crash-safe: every ingested batch is
// written to a write-ahead log before it is applied, checkpoints are taken
// every -checkpoint-every ticks, and a restart pointed at the same
// directory replays the log and resumes bit-identically where the previous
// process stopped (healthz answers 503 "recovering" until replay
// finishes). -fsync picks the durability/throughput trade-off: "tick"
// (default) fsyncs once per tick and publishes a tick only once it is
// durable, "never" leaves flushing to the OS, and "interval=<duration>"
// syncs from a background timer — bounding loss on power failure to one
// interval of ticks while keeping the append path free of fsyncs.
//
// -engine auto runs the adaptive planner: queries are partitioned into
// spatial groups and each group is routed to whichever of IMA/GMA a cost
// model predicts is cheaper, re-planned online as density shifts.
// /v1/stats exposes a "planner" block with per-group costs and migration
// counters.
//
//	monitor -net net.json -engine ima -serve 127.0.0.1:8080 \
//	        -wal-dir /var/lib/monitor/wal -checkpoint-every 60 -fsync tick
//
// Follower mode (-serve plus -follow) turns the process into a read
// replica of a durable primary: it bootstraps from the primary's newest
// checkpoint, tails its shipped WAL stream, replays every batch through
// the same deterministic path and serves reads (writes answer 503 with a
// pointer to the primary). The network file must be the one the primary
// runs on — bootstrap verifies the rebuilt snapshot byte for byte.
//
//	monitor -net net.json -engine ima -serve 127.0.0.1:8081 \
//	        -follow http://127.0.0.1:8080
//
// Router mode (-serve plus -replicate) load-balances reads across
// follower replicas, using the epoch as a consistency token: a request
// carrying ?since=E is only routed to a follower known to have reached
// epoch E. POSTs forward to -primary when given. No -net is needed —
// the router holds no engine.
//
//	monitor -serve 127.0.0.1:8079 \
//	        -replicate http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	        -primary http://127.0.0.1:8080
//
// Replay mode (default) replays a line-based update stream from stdin,
// printing result changes — a minimal, scriptable frontend:
//
//	monitor -net net.json -engine gma < updates.txt
//
// Stream protocol (whitespace-separated, one command per line, '#'
// comments):
//
//	obj <id> <edge> <frac>        # insert or move object
//	del <id>                      # remove object (unknown id: no-op)
//	qry <id> <k> <edge> <frac>    # install or move query (k ignored on move)
//	end <id>                      # terminate query (unknown id: no-op)
//	w   <edge> <weight>           # set edge weight
//	tick                          # end of timestamp: apply batch, report
//
// Results are reported after every tick for queries whose k-NN set
// changed. Both modes coalesce updates through the same ingestion batcher
// (serve.Batcher) and admit them by its checks, so a replayed stream and an
// HTTP-fed replica stay exactly consistent, and a report one mode rejects
// the other rejects with the same message.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"roadknn"
	"roadknn/internal/cluster"
	"roadknn/internal/graph"
	"roadknn/internal/serve"
	"roadknn/internal/wal"
)

func main() {
	var (
		netFile = flag.String("net", "", "network JSON file (required)")
		engine  = flag.String("engine", "ima", "monitoring engine: ovh, ima, gma or auto (adaptive planner)")
		workers = flag.Int("workers", 0, "worker-pool size for per-query work (0 = all CPUs, 1 = serial)")
		addr    = flag.String("serve", "", "serve an HTTP/JSON front-end on this address instead of replaying stdin")
		tick    = flag.Duration("tick", 100*time.Millisecond, "serve mode: stepping period (0 = step only on POST /v1/tick)")
		walDir  = flag.String("wal-dir", "", "serve mode: directory for the write-ahead log (enables crash recovery)")
		ckEvery = flag.Int("checkpoint-every", 60, "serve mode: write a checkpoint every N ticks (0 = never; needs -wal-dir)")
		fsync   = flag.String("fsync", "tick", "serve mode: WAL fsync policy: tick, never or interval=<duration>")
		follow  = flag.String("follow", "", "follower mode: primary base URL to replicate from (needs -serve)")
		repl    = flag.String("replicate", "", "router mode: comma-separated follower base URLs to balance reads across (needs -serve)")
		primary = flag.String("primary", "", "router mode: primary base URL for forwarded writes")
	)
	flag.Parse()
	if *repl != "" {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "monitor: -replicate requires -serve")
			os.Exit(1)
		}
		if err := routeHTTP(*addr, strings.Split(*repl, ","), *primary); err != nil {
			fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *netFile == "" {
		fmt.Fprintln(os.Stderr, "monitor: -net is required")
		os.Exit(1)
	}
	if *walDir != "" && *addr == "" {
		fmt.Fprintln(os.Stderr, "monitor: -wal-dir requires -serve")
		os.Exit(1)
	}
	if *follow != "" && (*addr == "" || *walDir != "") {
		fmt.Fprintln(os.Stderr, "monitor: -follow requires -serve and excludes -wal-dir")
		os.Exit(1)
	}
	syncPolicy, syncEvery, err := wal.ParseSyncSpec(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
		os.Exit(1)
	}
	net, err := loadNetwork(*netFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
		os.Exit(1)
	}
	// Serve mode enables delta emission too, so /v1/delta and /v1/deltas
	// can stream churn-proportional updates instead of full snapshots.
	opts := roadknn.Options{Workers: *workers, Serving: *addr != "", Deltas: *addr != ""}
	var srv roadknn.Engine
	switch strings.ToLower(*engine) {
	case "ovh":
		srv = roadknn.NewOVHWith(net, opts)
	case "ima":
		srv = roadknn.NewIMAWith(net, opts)
	case "gma":
		srv = roadknn.NewGMAWith(net, opts)
	case "auto":
		srv = roadknn.NewAutoWith(net, opts)
	default:
		fmt.Fprintf(os.Stderr, "monitor: unknown engine %q\n", *engine)
		os.Exit(1)
	}

	if *follow != "" {
		if err := followHTTP(srv, *addr, *follow); err != nil {
			fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *addr != "" {
		if err := serveHTTP(srv, *addr, *tick, *walDir, *ckEvery, wal.Options{Sync: syncPolicy, SyncEvery: syncEvery}); err != nil {
			fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := replay(srv, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
		os.Exit(1)
	}
}

// serveHTTP runs the serving runtime until SIGINT/SIGTERM. With a WAL
// directory the listener comes up first — /healthz reports "recovering"
// (503) while the log replays — and the wall-clock stepper starts only
// once the engine is rebuilt.
func serveHTTP(eng roadknn.Engine, addr string, tick time.Duration, walDir string, ckEvery int, wopts wal.Options) error {
	cfg := serve.Config{Tick: tick}
	var rec *wal.Recovery
	if walDir != "" {
		l, r, err := wal.OpenDir(walDir, wopts)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		cfg.WAL, cfg.CheckpointEvery, rec = l, ckEvery, r
	}
	s := serve.New(eng, cfg)
	wait := listen(addr, s.Handler())
	fmt.Fprintf(os.Stderr, "monitor: serving %s engine on http://%s (tick %v)\n",
		eng.Name(), addr, tick)
	if cfg.WAL != nil {
		st, err := s.Recover(rec)
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		fmt.Fprintf(os.Stderr,
			"monitor: wal %s recovered in %v: checkpoint stamp %d, %d batches (%d updates) replayed, "+
				"%d ticks verified, %d bytes truncated\n",
			walDir, st.Duration.Round(time.Millisecond), st.CheckpointStamp,
			st.ReplayedBatches, st.ReplayedUpdates, st.VerifiedTicks, st.TruncatedBytes)
	}
	s.Start()
	// Close first: it wakes parked long-pollers and streamers so the
	// graceful listener shutdown drains instead of timing out on them.
	return wait(s.Close)
}

// followHTTP runs a follower replica: handshake with the primary (the
// engine must mirror it), bring the listener up
// (healthz answers 503 until bootstrapped), bootstrap from the newest
// checkpoint and tail the shipped log until SIGINT/SIGTERM. A terminal
// replication error (divergence, pruned cursor) is reported but the
// process keeps serving its last consistent state — the router stops
// routing to a poisoned follower via its health probe.
func followHTTP(eng roadknn.Engine, addr, primaryURL string) error {
	fcfg := cluster.FollowerConfig{Primary: primaryURL}
	info, err := cluster.FetchInfo(fcfg)
	if err != nil {
		return fmt.Errorf("replication handshake with %s: %w", primaryURL, err)
	}
	if info.Engine != eng.Name() {
		return fmt.Errorf("primary runs engine %s, this replica %s", info.Engine, eng.Name())
	}
	s := serve.New(eng, serve.Config{Follower: true})
	wait := listen(addr, s.Handler())
	fmt.Fprintf(os.Stderr, "monitor: follower of %s serving %s engine on http://%s\n",
		primaryURL, eng.Name(), addr)

	f := cluster.NewFollower(s, fcfg)
	if err := f.Bootstrap(); err != nil {
		return fmt.Errorf("bootstrap from %s: %w", primaryURL, err)
	}
	fmt.Fprintf(os.Stderr, "monitor: bootstrapped at sequence %d (checkpoint stamp %d), tailing log\n",
		f.Cursor(), info.CheckpointStamp)
	f.Start()
	return wait(func() {
		f.Stop()
		if err := f.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "monitor: replication stopped: %v\n", err)
		}
		s.Close()
	})
}

// routeHTTP runs the read-side router over follower replicas.
func routeHTTP(addr string, followers []string, primaryURL string) error {
	for i := range followers {
		followers[i] = strings.TrimSpace(followers[i])
	}
	rt := cluster.NewRouter(cluster.RouterConfig{Followers: followers, Primary: primaryURL})
	rt.Start()
	defer rt.Close()
	wait := listen(addr, rt.Handler())
	fmt.Fprintf(os.Stderr, "monitor: routing reads across %d followers on http://%s\n",
		len(followers), addr)
	return wait(func() {})
}

// listen serves h on addr in the background. The returned wait blocks
// until SIGINT/SIGTERM or a listener error; after a signal it runs stop and
// then shuts the listener down gracefully, within 5 s.
func listen(addr string, h http.Handler) (wait func(stop func()) error) {
	hs := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	return func(stop func()) error {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "monitor: %v, shutting down\n", sig)
		}
		stop()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}

// usage is the stream protocol. Every argument is a 32-bit integer (ids and
// k are int32 in the engine) except the trailing frac or weight of obj, qry
// and w, which follows the edge it is on.
var usage = map[string]string{
	"obj": "obj <id> <edge> <frac>", "del": "del <id>", "qry": "qry <id> <k> <edge> <frac>",
	"end": "end <id>", "w": "w <edge> <weight>", "tick": "tick",
}

// replay consumes the update stream, batching commands between ticks
// through the same coalescing Batcher the HTTP front-end uses, seeded with
// the engine's edge set and fed through the same checked mutators: a bad
// line is an error naming it, never a panic in Step.
func replay(srv roadknn.Engine, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	g := srv.Network().G
	batch := serve.NewBatcher()
	batch.InitTopology(g.NumEdges(), g.FreeEdgeIDs())
	prev := map[roadknn.QueryID]string{}
	ts := 0
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(msg string) error { return fmt.Errorf("line %d: %s: %q", lineNo, msg, line) }
		want, ok := usage[f[0]]
		if !ok {
			return fail("unknown command")
		}
		if len(f) != len(strings.Fields(want)) {
			return fail(f[0] + " wants: " + want)
		}
		var n [3]int32
		var x float64
		var edge roadknn.EdgeID
		ints := f[1:]
		onEdge := f[0] == "obj" || f[0] == "qry" || f[0] == "w" // a frac or weight follows the edge
		if onEdge {
			ints = ints[:len(ints)-1]
		}
		for i, arg := range ints {
			v, err := strconv.ParseInt(arg, 10, 32)
			if err != nil {
				return fail(fmt.Sprintf("bad 32-bit integer %q", arg))
			}
			n[i] = int32(v)
		}
		if onEdge {
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return fail(fmt.Sprintf("bad number %q", f[len(f)-1]))
			}
			x, edge = v, roadknn.EdgeID(n[len(ints)-1])
		}
		pos := roadknn.Position{Edge: edge, Frac: x}
		var err error
		switch f[0] {
		case "obj":
			err = batch.Object(roadknn.ObjectID(n[0]), pos)
		case "del":
			batch.DeleteObject(roadknn.ObjectID(n[0]))
		case "qry":
			id := roadknn.QueryID(n[0])
			if err = batch.Query(id, int(n[1]), pos); err == nil {
				if _, exists := prev[id]; !exists {
					prev[id] = ""
				}
			}
		case "end":
			id := roadknn.QueryID(n[0])
			batch.EndQuery(id)
			delete(prev, id)
		case "w":
			err = batch.Edge(edge, x)
		case "tick":
			ts++
			srv.Step(batch.Drain())
			for _, id := range slices.Sorted(maps.Keys(prev)) {
				cur := fmt.Sprint(srv.Result(id))
				if cur != prev[id] {
					fmt.Fprintf(out, "ts %d query %d -> %s\n", ts, id, formatResult(srv.Result(id)))
					prev[id] = cur
				}
			}
		}
		if err != nil {
			return fail(err.Error())
		}
	}
	return sc.Err()
}

func formatResult(res []roadknn.Neighbor) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, nb := range res {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d@%.3f", nb.Obj, nb.Dist)
	}
	b.WriteByte(']')
	return b.String()
}

// loadNetwork reads the JSON format written by cmd/netgen.
func loadNetwork(path string) (*roadknn.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ff struct {
		Nodes []struct{ X, Y float64 } `json:"nodes"`
		Edges []struct {
			U, V int32
			W    float64
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &ff); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	b := roadknn.NewNetworkBuilder()
	for _, n := range ff.Nodes {
		b.AddNode(n.X, n.Y)
	}
	// The graph panics on a bad edge; the file is input, so it is an error.
	for i, e := range ff.Edges {
		u, v := roadknn.NodeID(e.U), roadknn.NodeID(e.V)
		if err := graph.CheckEdge(len(ff.Nodes), u, v, e.W); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		b.AddEdge(u, v, e.W)
	}
	return b.Build(), nil
}
