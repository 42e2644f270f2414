package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/experiments"
	"roadknn/internal/serve"
	"roadknn/internal/wal"
	"roadknn/internal/workload"
)

// Service workloads reach the system over loopback HTTP: reports go in
// through POST /v1/updates, POST /v1/tick steps, and a tick is fresh when
// the binary /v1/deltas subscriber has CRC-checked and decoded the delta
// frame carrying that tick's timestamp.

const (
	checkpointEvery = 60
	// recoveryTail is how many ticks after the last checkpoint the kill
	// lands, so recovery always replays the same amount of log.
	recoveryTail = 10
	// recoveryRepeats is how often the kill-and-recover epilogue recovers;
	// the reported time is the median.
	recoveryRepeats = 7
	// frameTimeout bounds the wait for one tick's delta frame; a frame that
	// takes longer counts as never arrived.
	frameTimeout = 20 * time.Second

	updatesBinary = "application/x-roadknn-updates"
	updatesJSON   = "application/json"
)

// serviceTicks rounds a measured tick count up until the whole run (the
// set-up tick, the warm-up and the measured ticks) ends recoveryTail ticks
// past a checkpoint.
func serviceTicks(sp *spec, measured int) int {
	for (1+sp.warmup+measured)%checkpointEvery != recoveryTail {
		measured++
	}
	return measured
}

// outDir is the benchmark's scratch directory, relative to the root of the
// checkout, where the command is started.
const outDir = "bench/out"

// logDir makes a fresh directory for a write-ahead log under outDir; the
// caller removes it.
func logDir(pattern string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, pattern)
}

// sut is one running service: the server behind a loopback listener, its
// log directory and the delta subscriber.
type sut struct {
	sp   *spec
	cfg  workload.Config
	dir  string
	log  *wal.Log
	srv  *serve.Server
	http *httptest.Server
	cl   *client
	sub  *subscriber
}

func engineOptions(sp *spec) core.Options {
	return core.Options{Workers: sp.workers, Serving: true, Deltas: true}
}

// openServer opens (or recovers) the log in dir and brings a server over a
// fresh engine to Ready. It reports how long the log scan (wal.OpenDir) and
// the replay (Server.Recover) took, in ms.
func openServer(sp *spec, cfg workload.Config, dir string) (log *wal.Log, srv *serve.Server, scanMs, replayMs float64, err error) {
	t0 := time.Now()
	log, rec, err := wal.OpenDir(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	scanMs = ms(time.Since(t0))
	eng := experiments.EngineWith(sp.engine, engineOptions(sp))(workload.BuildNetwork(cfg))
	srv = serve.New(eng, serve.Config{WAL: log, CheckpointEvery: checkpointEvery})
	t0 = time.Now()
	_, err = srv.Recover(rec)
	replayMs = ms(time.Since(t0))
	if err == nil && !srv.Ready() {
		err = errors.New("server not ready after recovery")
	}
	if err != nil {
		log.Close()
		return nil, nil, 0, 0, err
	}
	return log, srv, scanMs, replayMs, nil
}

// startService is the service set-up: log, engine, server, listener,
// subscriber, then the initial population as one binary POST and the first
// tick, until the subscriber holds that tick's rows.
func startService(sp *spec, cfg workload.Config, initial []byte) (*sut, error) {
	dir, err := logDir("wal-")
	if err != nil {
		return nil, err
	}
	s := &sut{sp: sp, cfg: cfg, dir: dir}
	if s.log, s.srv, _, _, err = openServer(sp, cfg, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.http = httptest.NewServer(s.srv.Handler())
	s.cl = newClient(s.http.URL)
	if s.sub, err = subscribe(s.http.URL); err != nil {
		s.stop()
		return nil, err
	}
	if err = s.cl.post("/v1/updates", updatesBinary, initial); err == nil {
		var stamp uint64
		if stamp, err = s.cl.tick(); err == nil {
			_, err = s.sub.await(stamp, nil)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	return s, nil
}

// stop closes the listener, ends the subscriber, closes the log and
// removes its directory. The server itself is abandoned, not Closed: Close
// would flush and release state a killed process never gets to.
func (s *sut) stop() {
	if s.sub != nil {
		s.sub.stop()
	}
	s.http.Close()
	s.log.Close()
	s.srv.Engine().Close()
	os.RemoveAll(s.dir)
}

// client is the load generator's HTTP side: keep-alive connections to one
// server, counting every response that is not a 2xx.
type client struct {
	base     string
	hc       *http.Client
	requests atomic.Int64
	errors   atomic.Int64
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: loadConns,
		DisableCompression:  true,
	}}}
}

func (c *client) do(method, path, contentType string, body []byte) ([]byte, error) {
	c.requests.Add(1)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.errors.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if err != nil {
		c.errors.Add(1)
	}
	return data, err
}

func (c *client) post(path, contentType string, body []byte) error {
	_, err := c.do(http.MethodPost, path, contentType, body)
	return err
}

// tick POSTs /v1/tick and returns the timestamp the server stepped to.
func (c *client) tick() (uint64, error) {
	data, err := c.do(http.MethodPost, "/v1/tick", "", nil)
	if err != nil {
		return 0, err
	}
	var ack struct {
		Timestamp uint64 `json:"timestamp"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return 0, fmt.Errorf("tick ack: %w", err)
	}
	return ack.Timestamp, nil
}

// stats reads the epoch and snapshot CRC from /v1/stats.
func (c *client) stats() (epoch uint64, crc uint32, resyncs, evicted int, err error) {
	data, err := c.do(http.MethodGet, "/v1/stats", "", nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var st struct {
		Epoch uint64 `json:"epoch"`
		CRC   uint32 `json:"snapshot_crc"`
		Delta struct {
			Resyncs int `json:"resyncs"`
			Evicted int `json:"evicted"`
		} `json:"delta"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("stats: %w", err)
	}
	return st.Epoch, st.CRC, st.Delta.Resyncs, st.Delta.Evicted, nil
}

// loadConns is the load generator's connection (and goroutine) budget.
const loadConns = 2

// sendBodies POSTs one tick's bodies over the load generator's two
// connections, each connection sending its share in order, and returns
// every round trip in ms.
func (c *client) sendBodies(contentType string, lanes tickBodies) ([]float64, error) {
	var wg sync.WaitGroup
	var errs [loadConns]error
	var rtts [loadConns][]float64
	for l, bodies := range lanes {
		if len(bodies) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range bodies {
				t0 := time.Now()
				if errs[l] = c.post("/v1/updates", contentType, b); errs[l] != nil {
					return
				}
				rtts[l] = append(rtts[l], ms(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	return append(rtts[0], rtts[1]...), errors.Join(errs[:]...)
}

// frameEvent is one delta frame in the subscriber's hands.
type frameEvent struct {
	stamp  uint64
	at     time.Time // CRC-checked and decoded
	resync bool
}

// subscriber is the consumer: one binary /v1/deltas stream, rebuilt into a
// snapshot frame by frame so its CRC can be held against the server's.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	// events carries every decoded frame to the load loop. Its buffer holds
	// a whole run, so the reader never waits for the loop.
	events  chan frameEvent
	applied atomic.Uint64 // epoch of the rebuilt snapshot
	bytes   atomic.Int64  // delta payload bytes received

	// Owned by the reader goroutine until done is closed.
	snap    *core.Snapshot
	resyncs int // beyond the bootstrap frame
	err     error
}

func subscribe(base string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/deltas", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", serve.DeltaStreamContentType)
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("subscribe: %s", resp.Status)
	}
	if err != nil {
		cancel()
		return nil, err
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), events: make(chan frameEvent, 4096)}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		s.err = s.read(serve.NewDeltaStreamReader(resp.Body))
		if ctx.Err() != nil {
			s.err = nil // ended by stop, not by the stream
		}
	}()
	return s, nil
}

func (s *subscriber) read(r *serve.DeltaStreamReader) error {
	for {
		typ, payload, err := r.Next()
		if err != nil {
			return err
		}
		d, snap, _, err := serve.DecodeDeltaFrame(typ, payload)
		at := time.Now()
		if err != nil {
			return err
		}
		switch {
		case snap != nil:
			if s.snap != nil {
				s.resyncs++
				s.events <- frameEvent{stamp: snap.Timestamp(), at: at, resync: true}
			}
			s.snap = snap
		case d != nil:
			s.bytes.Add(int64(len(payload)))
			s.events <- frameEvent{stamp: d.Timestamp(), at: at}
			if s.snap, err = d.Apply(s.snap); err != nil {
				return err
			}
		default:
			continue // heartbeat
		}
		s.applied.Store(s.snap.Epoch())
	}
}

// await blocks until the frame of timestamp stamp was decoded and returns
// when. A resync in its place, a dead stream or frameTimeout is an error.
func (s *subscriber) await(stamp uint64, visible map[uint64]time.Time) (time.Time, error) {
	timeout := time.NewTimer(frameTimeout)
	defer timeout.Stop()
	for {
		select {
		case ev := <-s.events:
			if ev.resync {
				if ev.stamp >= stamp {
					return ev.at, fmt.Errorf("tick %d arrived as a resync", stamp)
				}
				continue
			}
			if visible != nil {
				if _, dup := visible[ev.stamp]; !dup { // a checkpoint tick publishes twice
					visible[ev.stamp] = ev.at
				}
			}
			if ev.stamp >= stamp {
				return ev.at, nil
			}
		case <-s.done:
			return time.Time{}, fmt.Errorf("delta stream ended before tick %d: %v", stamp, s.err)
		case <-timeout.C:
			return time.Time{}, fmt.Errorf("delta frame of tick %d never arrived", stamp)
		}
	}
}

// settle waits until the rebuilt snapshot has reached epoch.
func (s *subscriber) settle(epoch uint64) error {
	deadline := time.Now().Add(frameTimeout)
	for s.applied.Load() < epoch {
		select {
		case <-s.done:
			return fmt.Errorf("delta stream ended at epoch %d, want %d: %v", s.applied.Load(), epoch, s.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriber stuck at epoch %d, want %d", s.applied.Load(), epoch)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}

// tickBodies is one tick's POST bodies, dealt to the two connections.
type tickBodies [loadConns][][]byte

// encoded is a stream as POST bodies.
type encoded struct {
	initial []byte // the initial population, always one binary body
	ticks   []tickBodies
}

// encodeStream renders the initial population and every tick in the
// workload's encoding. A tick is one body, or bodies of
// sp.bodyReports reports each. Entities are reported once per tick except
// edges, which the generator may draw twice; the last report wins, so all
// edge bodies travel on one connection to keep their order — and with it
// the results — the same on every run.
func encodeStream(sp *spec, st *stream) (*encoded, error) {
	initial, err := serve.EncodeUpdates("binary", st.initial.asUpdates())
	if err != nil {
		return nil, err
	}
	ticks := make([]tickBodies, len(st.ticks))
	for i, u := range st.ticks {
		if sp.bodyReports == 0 {
			b, err := serve.EncodeUpdates(sp.encoding, u)
			if err != nil {
				return nil, err
			}
			ticks[i][0] = [][]byte{b}
			continue
		}
		n := sp.bodyReports
		lane := 0
		add := func(l int, part core.Updates) error {
			b, err := serve.EncodeUpdates(sp.encoding, part)
			ticks[i][l] = append(ticks[i][l], b)
			return err
		}
		for o := u.Edges; len(o) > 0; o = o[min(n, len(o)):] {
			if err := add(0, core.Updates{Edges: o[:min(n, len(o))]}); err != nil {
				return nil, err
			}
		}
		for o := u.Queries; len(o) > 0; o = o[min(n, len(o)):] {
			lane = 1 - lane
			if err := add(lane, core.Updates{Queries: o[:min(n, len(o))]}); err != nil {
				return nil, err
			}
		}
		for o := u.Objects; len(o) > 0; o = o[min(n, len(o)):] {
			lane = 1 - lane
			if err := add(lane, core.Updates{Objects: o[:min(n, len(o))]}); err != nil {
				return nil, err
			}
		}
	}
	return &encoded{initial: initial, ticks: ticks}, nil
}

func contentType(encoding string) string {
	if encoding == "json" {
		return updatesJSON
	}
	return updatesBinary
}

// serviceRun is what one live run of a service workload observed, per
// measured tick unless noted. The end-to-end metrics are derived from it;
// the traced pass reads the rest.
type serviceRun struct {
	fresh     []float64 // ms, due → frame decoded
	tickRTT   []float64 // ms, POST /v1/tick
	ckptRTT   []float64 // ms, the tickRTT samples of checkpoint ticks
	fanout    []float64 // ms, tick ack → frame decoded
	late      []float64 // ms the open-loop generator started a tick after it was due
	ingestRTT []float64 // ms, every POST /v1/updates of the measured ticks
	syncMs    []float64 // ms, follower SyncOnce per warm-up tick (traced serve_durable)

	setupS, heapMB, wallS float64
	reports               int
	deltaBytes            int64 // delta payload bytes over the measured ticks
	snapshotBytes         int
	crc                   uint32
	resyncs, evicted      int
	httpErrors            int64

	recoveryS     float64
	recoverScanMs float64 // wal.OpenDir
	replayMs      float64 // Server.Recover
	bootstrapS    float64 // follower bootstrap + first sync
	diverged      int     // follower CRC != primary CRC after the warm-up
}

// runService drives one live run: set-up, warm-up back to back, the
// measured ticks on the workload's loop, the CRC checks, and the
// kill-and-recover epilogue. withFollower adds the synchronous follower of
// the traced pass to the warm-up.
func runService(sp *spec, st *stream, enc *encoded, withFollower bool, res *result) (*serviceRun, error) {
	bodies := enc.ticks
	run := &serviceRun{}
	s, setupS, base, err := medianSetup(setupRepeats, func() (*sut, error) {
		return startService(sp, st.cfg, enc.initial)
	}, (*sut).stop)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	run.setupS = setupS
	res.Attempted += 2
	progress("set up %d times", setupRepeats)

	var errs []error
	fail := func(e error) {
		res.Failed++
		errs = append(errs, e)
	}

	var fol *follower
	if withFollower {
		if fol, err = startFollower(sp, st.cfg, s.http.URL); err != nil {
			return nil, err
		}
		defer fol.stop()
		run.bootstrapS = fol.bootstrapS
	}

	ct := contentType(sp.encoding)
	n := len(bodies)
	due := make([]time.Time, n)   // when tick i was due
	acked := make([]time.Time, n) // when its POST /v1/tick returned
	stamps := make([]uint64, n)   // the timestamp the server gave it
	rtts := make([][]float64, n)  // its POST /v1/updates round trips
	visible := make(map[uint64]time.Time, n)
	var start time.Time
	prev := time.Now()
	for i, lanes := range bodies {
		m := i - sp.warmup // index among the measured ticks
		switch {
		case m == 0:
			start = time.Now()
			due[i] = start
		case m > 0 && sp.period > 0:
			due[i] = start.Add(time.Duration(m) * sp.period)
			time.Sleep(time.Until(due[i]))
			run.late = append(run.late, ms(time.Since(due[i])))
		default:
			due[i] = prev
		}
		res.Attempted += len(lanes[0]) + len(lanes[1]) + 1
		var e error
		if rtts[i], e = s.cl.sendBodies(ct, lanes); e != nil {
			fail(e)
			continue
		}
		t0 := time.Now()
		if stamps[i], e = s.cl.tick(); e != nil {
			fail(e)
			continue
		}
		acked[i] = time.Now()
		if m >= 0 {
			run.tickRTT = append(run.tickRTT, ms(acked[i].Sub(t0)))
			if stamps[i]%checkpointEvery == 0 {
				run.ckptRTT = append(run.ckptRTT, ms(acked[i].Sub(t0)))
			}
			if sp.period > 0 && i < n-1 {
				continue // open loop: the next tick does not wait for this frame
			}
		}
		if prev, e = s.sub.await(stamps[i], visible); e != nil {
			fail(e)
			prev = time.Now()
		}
		if fol != nil && m < 0 {
			t0 := time.Now()
			if _, e := fol.f.SyncOnce(0); e != nil {
				return nil, fmt.Errorf("follower sync: %w", e)
			}
			run.syncMs = append(run.syncMs, ms(time.Since(t0)))
			prev = time.Now()
			if m == -1 && fol.srv.Engine().Snapshot().CRC32() != s.srv.Engine().Snapshot().CRC32() {
				run.diverged = 1
			}
		}
	}
	progress("%d ticks served", n)
	var last time.Time
	for i := sp.warmup; i < n; i++ {
		at, ok := visible[stamps[i]]
		if !ok {
			if !acked[i].IsZero() { // else already counted
				fail(fmt.Errorf("tick %d: no delta frame", i))
			}
			continue
		}
		run.fresh = append(run.fresh, ms(at.Sub(due[i])))
		run.fanout = append(run.fanout, ms(at.Sub(acked[i])))
		run.ingestRTT = append(run.ingestRTT, rtts[i]...)
		run.reports += st.reports[i]
		last = at
	}
	if len(run.fresh) == 0 {
		return nil, errors.Join(append(errs, errors.New("no measured tick completed"))...)
	}
	run.wallS = last.Sub(start).Seconds()
	run.heapMB = heapMB() - base
	runtime.KeepAlive(enc) // resident across both heap readings, so they cancel out

	// The subscriber's rebuilt snapshot must be the server's.
	res.Attempted++
	epoch, crc, resyncs, evicted, err := s.cl.stats()
	if err != nil {
		return nil, err
	}
	run.crc, run.resyncs, run.evicted = crc, resyncs, evicted
	if err := s.sub.settle(epoch); err != nil {
		fail(err)
	}
	run.deltaBytes = s.sub.bytes.Load()
	s.sub.stop()
	if s.sub.err != nil {
		fail(fmt.Errorf("delta stream: %w", s.sub.err))
	} else if got := s.sub.snap.CRC32(); got != crc {
		fail(fmt.Errorf("subscriber snapshot crc %08x, server %08x", got, crc))
	}
	run.snapshotBytes = len(s.sub.snap.AppendBinary(nil))
	run.httpErrors = s.cl.errors.Load()

	// Kill and recover: the listener goes away and the server is abandoned
	// as it stands; recovery opens the same directory with a fresh engine.
	s.http.Close()
	var secs, scans, replays []float64
	for i := 0; i < recoveryRepeats; i++ {
		res.Attempted++
		runtime.GC() // every recovery starts from a collected heap
		t0 := time.Now()
		log, srv, scanMs, replayMs, err := openServer(sp, st.cfg, s.dir)
		if err != nil {
			fail(fmt.Errorf("recovery: %w", err))
			break
		}
		secs = append(secs, time.Since(t0).Seconds())
		scans = append(scans, scanMs)
		replays = append(replays, replayMs)
		if got := srv.Engine().Snapshot().CRC32(); got != crc {
			fail(fmt.Errorf("recovered snapshot crc %08x, before the kill %08x", got, crc))
		}
		log.Close()
		srv.Engine().Close()
	}
	progress("recovered %d times", len(secs))
	if len(secs) > 0 {
		run.recoveryS, run.recoverScanMs, run.replayMs = median(secs), median(scans), median(replays)
	}
	return run, errors.Join(errs...)
}

// measureService is the untraced pass of a service workload.
func measureService(sp *spec, st *stream, res *result) error {
	enc, err := encodeStream(sp, st)
	if err != nil {
		return err
	}
	st.ticks = nil // only the bodies stay resident
	run, err := runService(sp, st, enc, false, res)
	if run == nil {
		return err
	}
	res.Samples = len(run.fresh)
	res.SnapshotCRC = hex32(run.crc)
	res.set("setup_s", run.setupS, "s")
	res.set("freshness_ms_p50", percentile(run.fresh, 0.50), "ms")
	res.set("freshness_ms_p90", percentile(run.fresh, 0.90), "ms")
	if sp.period > 0 {
		res.set("updates_per_s", float64(run.reports)/run.wallS, "reports/s")
	} else {
		res.set("updates_per_s", float64(run.reports)/(sum(run.fresh)/1e3), "reports/s")
	}
	res.set("live_heap_mb", run.heapMB, "MB")
	res.set("recovery_s", run.recoveryS, "s")
	return err
}
