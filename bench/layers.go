package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/experiments"
	"roadknn/internal/planner"
	"roadknn/internal/pool"
	"roadknn/internal/serve"
	"roadknn/internal/wal"
	"roadknn/internal/workload"
)

// The traced pass produces the per-layer metrics. Every number is taken
// from outside the program: the harness times its own calls into each
// layer's public functions (spans), reads the counters those layers
// publish, and replays the stream as a staged pipeline in which the stages
// a live tick runs inside serve.Server happen one after the other under
// the harness's clock. A metric that does not apply to a workload is 0.

const (
	// compareTicks is how many measured ticks the comparison engines and the
	// staged pipeline run; compareWarmup caps their warm-up, which needs no
	// delta ring to fill.
	compareTicks  = 40
	compareWarmup = 12
	// shadowTicks is how many ticks are also appended to the fsync=tick
	// shadow log.
	shadowTicks = 20
)

// layerMetric declares one per-layer metric; BENCHMARK.json lists the same
// names and units.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"core.step_ms_p50.ovh", "ms"}, {"core.step_ms_p50.ima", "ms"}, {"core.step_ms_p50.gma", "ms"},
	{"core.step_ms_p90.ovh", "ms"}, {"core.step_ms_p90.ima", "ms"}, {"core.step_ms_p90.gma", "ms"},
	{"core.ima_over_ovh", "ratio"}, {"core.gma_over_ima", "ratio"},
	{"core.warmup_over_steady", "ratio"},
	{"core.allocs_per_step", "count"}, {"core.alloc_kb_per_step", "KB"},
	{"core.size_mb", "MB"},
	{"core.register_us_per_query", "us"},
	{"core.rebuild_ms", "ms"},
	{"core.rows_changed_frac", "ratio"},
	{"core.snapshot_crc_ms_p50", "ms"}, {"core.delta_encode_ms_p50", "ms"}, {"core.delta_apply_ms_p50", "ms"},
	{"core.oracle_mismatches", "count"},
	{"planner.migrations", "count"}, {"planner.groups", "count"},
	{"planner.replan_tick_ms_p50", "ms"}, {"planner.steady_tick_ms_p50", "ms"},
	{"planner.replan_over_steady", "ratio"},
	{"planner.auto_over_best_static", "ratio"},
	{"planner.size_mb", "MB"},
	{"pool.step_ms_p50.w1", "ms"}, {"pool.step_ms_p50.w2", "ms"},
	{"pool.speedup_w2", "ratio"},
	{"pool.run_overhead_us", "us"},
	{"roadnet.apply_ms_p50", "ms"},
	{"graph.refreeze_incremental_us", "us"}, {"graph.compact_cold_us", "us"},
	{"serve.decode_ms_p50", "ms"},
	{"serve.decode_mbps.json", "MB/s"}, {"serve.decode_mbps.ndjson", "MB/s"}, {"serve.decode_mbps.binary", "MB/s"},
	{"serve.coalesce_ms_p50", "ms"},
	{"serve.ingest_rtt_ms_p50", "ms"}, {"serve.tick_rtt_ms_p50", "ms"},
	{"serve.fanout_ms_p50", "ms"},
	{"serve.delta_kb_per_tick", "KB"}, {"serve.snapshot_kb", "KB"}, {"serve.delta_over_snapshot", "ratio"},
	{"serve.checkpoint_tick_excess_ms", "ms"},
	{"serve.resyncs", "count"}, {"serve.evicted", "count"}, {"serve.http_errors", "count"},
	{"serve.recover_replay_ms", "ms"},
	{"serve.unaccounted_ms_p50", "ms"},
	{"wal.append_batch_ms_p50", "ms"}, {"wal.append_tick_ms_p50", "ms"},
	{"wal.kb_per_tick", "KB"},
	{"wal.recover_scan_ms", "ms"},
	{"wal.fsync_tick_ms_p50", "ms"},
	{"cluster.bootstrap_s", "s"}, {"cluster.sync_ms_p50", "ms"}, {"cluster.diverged", "count"},
	{"loadgen.reports_per_tick", "count"}, {"loadgen.gen_s", "s"},
	{"loadgen.late_frac", "ratio"}, {"loadgen.max_late_ms", "ms"},
	{"trace.coverage", "ratio"},
}

// layers collects the traced pass's numbers by metric name.
type layers map[string]float64

// p50 is the median of xs, 0 when there is no sample.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, 0.50)
}

func runTraced(sp *spec, st *stream, res *result) error {
	tr := newTracer()
	lm := layers{}
	measured := st.applyMs[sp.warmup:]
	reports := 0
	for _, n := range st.reports[sp.warmup:] {
		reports += n
	}
	lm["loadgen.reports_per_tick"] = float64(reports) / float64(len(measured))
	lm["loadgen.gen_s"] = st.genSeconds
	lm["roadnet.apply_ms_p50"] = p50(measured)
	topo := experiments.TopoMicro(st.cfg.Edges, st.cfg.Seed)
	lm["graph.refreeze_incremental_us"] = topo.IncrementalNs / 1e3
	lm["graph.compact_cold_us"] = topo.ColdNs / 1e3
	lm["core.register_us_per_query"] = registerMicros(sp, st, tr)

	var err error
	if sp.service {
		err = tracedService(sp, st, tr, lm, res)
	} else {
		err = tracedLibrary(sp, st, tr, lm, res)
	}
	if err == nil {
		compareEngines(sp, st, lm)
	}
	if werr := tr.write(sp.name); err == nil {
		err = werr
	}
	for _, m := range layerMetrics {
		res.set(m.name, lm[m.name], m.unit)
	}
	return err
}

// compareWindow is the ticks every engine comparison is made on, so that
// each ratio holds two engines against the same reports: the head of the
// stream after a short warm-up, for the workload's own engine as for the
// others.
func compareWindow(sp *spec, st *stream) (from, to int) {
	from = min(sp.warmup, compareWarmup)
	return from, min(from+compareTicks, len(st.ticks))
}

// stepEngine loads an engine and steps it to the end of the comparison
// window. It returns the window's Step times in ms and how much the live
// heap grew from before the engine existed to after its last Step.
func stepEngine(sp *spec, st *stream, engine string, opts core.Options) (stepMs []float64, heapGrowthMB float64) {
	from, to := compareWindow(sp, st)
	alt := *sp
	alt.engine = engine
	base := heapMB()
	eng := loadLibrary(&alt, st.cfg, &st.initial, opts)
	defer eng.Close()
	for i, u := range st.ticks[:to] {
		t0 := time.Now()
		eng.Step(u)
		if i >= from {
			stepMs = append(stepMs, ms(time.Since(t0)))
		}
	}
	heapGrowthMB = heapMB() - base
	runtime.KeepAlive(eng)
	runtime.KeepAlive(st) // resident across both heap readings, like the engine's inputs in a live run
	return stepMs, heapGrowthMB
}

// compareEngines steps the paper's three algorithms over the comparison
// window, serially and with the workload's own serving options. The
// workload's own engine was already timed on that window by the traced
// loop; its row is left alone.
func compareEngines(sp *spec, st *stream, lm layers) {
	opts := core.Options{Workers: 1}
	if sp.service {
		opts = engineOptions(sp)
		opts.Workers = 1
	}
	heap := map[string]float64{}
	for _, name := range []string{"OVH", "IMA", "GMA"} {
		e := strings.ToLower(name)
		if _, done := lm["core.step_ms_p50."+e]; done {
			continue
		}
		ms, grown := stepEngine(sp, st, name, opts)
		lm["core.step_ms_p50."+e] = percentile(ms, 0.50)
		lm["core.step_ms_p90."+e] = percentile(ms, 0.90)
		heap[e] = grown
		progress("%s stepped over the comparison window", name)
	}
	lm["core.ima_over_ovh"] = lm["core.step_ms_p50.ima"] / lm["core.step_ms_p50.ovh"]
	lm["core.gma_over_ima"] = lm["core.step_ms_p50.gma"] / lm["core.step_ms_p50.ima"]
	if sp.engine != "AUTO" {
		return
	}
	// The adaptive engine against the better static one, both serial, and
	// against itself on two workers.
	w1, grown := stepEngine(sp, st, "AUTO", opts)
	lm["pool.step_ms_p50.w1"] = percentile(w1, 0.50)
	lm["pool.speedup_w2"] = lm["pool.step_ms_p50.w1"] / lm["pool.step_ms_p50.w2"]
	lm["planner.auto_over_best_static"] = lm["pool.step_ms_p50.w1"] /
		min(lm["core.step_ms_p50.ima"], lm["core.step_ms_p50.gma"])
	// What the planner holds beyond a static IMA after the same ticks: its
	// own bookkeeping, the second child and that child's copy of the network.
	lm["planner.size_mb"] = grown - heap["ima"]
	lm["pool.run_overhead_us"] = poolRunMicros()
}

// poolRunMicros times pool.Pool.Run of a no-op over 64 items on two
// workers.
func poolRunMicros() float64 {
	p := pool.New(benchProcs)
	defer p.Close()
	noop := func(worker, item int) {}
	p.Run(64, noop) // starts the workers
	const runs = 2000
	t0 := time.Now()
	for i := 0; i < runs; i++ {
		p.Run(64, noop)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / runs
}

// registerMicros times Engine.Register over the initial queries on a
// loaded network, per query.
func registerMicros(sp *spec, st *stream, tr *tracer) float64 {
	empty := st.initial
	empty.queries = nil
	eng := loadLibrary(sp, st.cfg, &empty, core.Options{Workers: sp.workers})
	defer eng.Close()
	ms := tr.call("Engine.Register", -1, -1, func() {
		for i, pos := range st.initial.queries {
			eng.Register(core.QueryID(i), pos, st.initial.k)
		}
	})
	return ms * 1e3 / float64(len(st.initial.queries))
}

// stepStats accumulates what a traced loop learns around Engine.Step.
type stepStats struct {
	mallocs, bytes uint64
	before         runtime.MemStats
	after          runtime.MemStats
	steps          int
}

// around runs step between two MemStats readings, both outside its span.
func (s *stepStats) around(count bool, step func()) {
	runtime.ReadMemStats(&s.before)
	step()
	runtime.ReadMemStats(&s.after)
	if count {
		s.mallocs += s.after.Mallocs - s.before.Mallocs
		s.bytes += s.after.TotalAlloc - s.before.TotalAlloc
		s.steps++
	}
}

// coreMetrics fills the metrics every traced loop derives from its
// Engine.Step spans, for the workload's own engine. warm is where that
// loop's measured ticks began.
func coreMetrics(sp *spec, st *stream, tr *tracer, lm layers, ss *stepStats, eng core.Engine, warm, nTicks int) {
	from, to := compareWindow(sp, st)
	window := tr.perTick("Engine.Step", from, to)
	if own := strings.ToLower(sp.engine); own != "auto" {
		lm["core.step_ms_p50."+own] = percentile(window, 0.50)
		lm["core.step_ms_p90."+own] = percentile(window, 0.90)
	} else {
		lm["pool.step_ms_p50.w2"] = percentile(window, 0.50)
	}
	if w := tr.perTick("Engine.Step", 0, warm); len(w) > 0 {
		lm["core.warmup_over_steady"] = mean(w) / percentile(tr.perTick("Engine.Step", warm, nTicks), 0.50)
	}
	lm["core.allocs_per_step"] = float64(ss.mallocs) / float64(ss.steps)
	lm["core.alloc_kb_per_step"] = float64(ss.bytes) / 1024 / float64(ss.steps)
	lm["core.size_mb"] = float64(eng.SizeBytes()) / (1 << 20)
	if rb, ok := eng.(core.Rebuilder); ok {
		var ms []float64
		for i := 0; i < setupRepeats; i++ {
			ms = append(ms, tr.call("Rebuilder.Rebuild", nTicks, -1, rb.Rebuild))
		}
		lm["core.rebuild_ms"] = median(ms)
	}
}

// tracedLibrary is the library loop with a span around every Step.
func tracedLibrary(sp *spec, st *stream, tr *tracer, lm layers, res *result) error {
	eng := loadLibrary(sp, st.cfg, &st.initial, core.Options{Workers: sp.workers})
	defer eng.Close()
	orc := newOracle(st, res)
	sp2, _ := eng.(planner.StatsProvider)
	var ss stepStats
	var replans uint64
	var replanMs, steadyMs []float64
	for i, u := range st.ticks {
		root := tr.begin("tick", i, -1)
		var stepMs float64
		ss.around(i >= sp.warmup, func() {
			stepMs = tr.call("Engine.Step", i, root, func() { eng.Step(u) })
		})
		tr.end(root)
		res.Attempted++
		if sp2 != nil {
			// A tick re-planned when the planner's own counter moved.
			r := sp2.PlannerStats().Replans
			switch {
			case i < sp.warmup:
			case r != replans:
				replanMs = append(replanMs, stepMs)
			default:
				steadyMs = append(steadyMs, stepMs)
			}
			replans = r
		}
		orc.after(i, len(st.ticks), u, eng, tr)
	}
	lm["core.oracle_mismatches"] = float64(orc.mismatches)
	res.Samples = len(st.ticks) - sp.warmup
	res.SnapshotCRC = hex32(resultCRC(eng, len(orc.qpos)))
	coreMetrics(sp, st, tr, lm, &ss, eng, sp.warmup, len(st.ticks))
	if sp2 != nil {
		ps := sp2.PlannerStats()
		lm["planner.migrations"] = float64(ps.Migrations)
		lm["planner.groups"] = float64(ps.Groups)
		lm["planner.replan_tick_ms_p50"] = p50(replanMs)
		lm["planner.steady_tick_ms_p50"] = p50(steadyMs)
		if len(replanMs) > 0 && len(steadyMs) > 0 {
			lm["planner.replan_over_steady"] = p50(replanMs) / p50(steadyMs)
		}
	}
	return nil
}

// tracedService runs the live loop once more for the numbers only the
// running service shows (round trips, fan-out, checkpoints, recovery, the
// follower), then the staged pipeline for the stages inside a tick.
func tracedService(sp *spec, st *stream, tr *tracer, lm layers, res *result) error {
	enc, err := encodeStream(sp, st)
	if err != nil {
		return err
	}
	run, err := runService(sp, st, enc, sp.follower, res)
	if run == nil {
		return err
	}
	res.Samples = len(run.fresh)
	res.SnapshotCRC = hex32(run.crc)
	ticks := float64(len(run.fresh))
	lm["serve.ingest_rtt_ms_p50"] = p50(run.ingestRTT)
	lm["serve.tick_rtt_ms_p50"] = p50(run.tickRTT)
	lm["serve.fanout_ms_p50"] = p50(run.fanout)
	lm["serve.delta_kb_per_tick"] = float64(run.deltaBytes) / 1024 / ticks
	lm["serve.snapshot_kb"] = float64(run.snapshotBytes) / 1024
	lm["serve.delta_over_snapshot"] = lm["serve.delta_kb_per_tick"] / lm["serve.snapshot_kb"]
	if len(run.ckptRTT) > 0 {
		lm["serve.checkpoint_tick_excess_ms"] = p50(run.ckptRTT) - p50(run.tickRTT)
	}
	lm["serve.resyncs"] = float64(run.resyncs)
	lm["serve.evicted"] = float64(run.evicted)
	lm["serve.http_errors"] = float64(run.httpErrors)
	lm["serve.recover_replay_ms"] = run.replayMs
	lm["wal.recover_scan_ms"] = run.recoverScanMs
	lm["cluster.bootstrap_s"] = run.bootstrapS
	lm["cluster.sync_ms_p50"] = p50(run.syncMs)
	lm["cluster.diverged"] = float64(run.diverged)
	if len(run.late) > 0 {
		// Late means the generator started a tick more than a tenth of a
		// period after it was due.
		n := 0
		for _, l := range run.late {
			if l > ms(sp.period)/10 {
				n++
			}
		}
		lm["loadgen.late_frac"] = float64(n) / float64(len(run.late))
		lm["loadgen.max_late_ms"] = percentile(run.late, 1)
	}

	staged, serr := runStaged(sp, st, enc, tr, lm, res)
	if serr != nil {
		return errors.Join(err, serr)
	}
	lm["serve.decode_mbps.json"], lm["serve.decode_mbps.ndjson"], lm["serve.decode_mbps.binary"] = decodeRates(sp, st)
	fresh := percentile(run.fresh, 0.50)
	lm["trace.coverage"] = staged / fresh
	lm["serve.unaccounted_ms_p50"] = fresh - staged
	return err
}

// decodeRates runs serve.DecodeUpdates over the head of the measured
// ticks, each tick as one body, in all three encodings; MB/s each.
func decodeRates(sp *spec, st *stream) (json, ndjson, binary float64) {
	rate := func(encoding string) float64 {
		var bytes int
		var secs float64
		for _, u := range st.ticks[sp.warmup : sp.warmup+min(shadowTicks, len(st.ticks)-sp.warmup)] {
			body, err := serve.EncodeUpdates(encoding, u)
			if err != nil {
				return 0
			}
			t0 := time.Now()
			if _, err := serve.DecodeUpdates(encoding, body); err != nil {
				return 0
			}
			secs += time.Since(t0).Seconds()
			bytes += len(body)
		}
		return float64(bytes) / (1 << 20) / secs
	}
	return rate("json"), rate("ndjson"), rate("binary")
}

// feed reports one batch into the batcher the way Server.ingest does.
func feed(b *serve.Batcher, u core.Updates) {
	for _, o := range u.Objects {
		if o.Delete {
			b.DeleteObject(o.ID)
		} else {
			b.Object(o.ID, o.New)
		}
	}
	for _, q := range u.Queries {
		if q.Delete {
			b.EndQuery(q.ID)
		} else {
			b.Query(q.ID, q.K, q.New)
		}
	}
	for _, e := range u.Edges {
		b.Edge(e.Edge, e.NewW)
	}
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// scratchLog opens a write-ahead log in a fresh directory under outDir;
// closeLog closes it and removes the directory.
func scratchLog(pattern string, sync wal.SyncPolicy) (log *wal.Log, dir string, closeLog func(), err error) {
	if dir, err = logDir(pattern); err != nil {
		return nil, "", nil, err
	}
	if log, _, err = wal.OpenDir(dir, wal.Options{Sync: sync}); err != nil {
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	return log, dir, func() { log.Close(); os.RemoveAll(dir) }, nil
}

// runStaged replays the head of the stream as the staged pipeline: what
// one tick does inside serve.Server — decode, coalesce, log, step,
// checksum, log, encode — and what its consumer does — decode, apply —
// one public call after the other, each under its own span.
func runStaged(sp *spec, st *stream, enc *encoded, tr *tracer, lm layers, res *result) (stageSum float64, err error) {
	log, dir, closeLog, err := scratchLog("wal-staged-", wal.SyncNever)
	if err != nil {
		return 0, err
	}
	defer closeLog()
	// The shadow log repeats the appends under fsync=tick. What it costs
	// depends on the disk under the sandbox, so it is informational.
	shadow, _, closeShadow, err := scratchLog("wal-shadow-", wal.SyncTick)
	if err != nil {
		return 0, err
	}
	defer closeShadow()

	eng := experiments.EngineWith(sp.engine, engineOptions(sp))(workload.BuildNetwork(st.cfg))
	defer eng.Close()
	g := eng.Network().G
	b := serve.NewBatcher()
	b.InitTopology(g.NumEdges(), g.FreeEdgeIDs())
	consumer := eng.Snapshot()
	var ss stepStats
	var seq, shadowSeq uint64
	var frame []byte
	var rows int
	var fsyncMs []float64

	warm, nTicks := compareWindow(sp, st)
	// tick -1 loads the initial population through the same stages.
	stage := func(tick int, u core.Updates, bodies tickBodies, encoding string) error {
		var serr error
		root := tr.begin("tick", tick, -1)
		for _, lane := range bodies {
			for _, body := range lane {
				tr.call("serve.DecodeUpdates", tick, root, func() {
					_, serr = serve.DecodeUpdates(encoding, body)
				})
				if serr != nil {
					return serr
				}
			}
		}
		var drained core.Updates
		tr.call("serve.Batcher", tick, root, func() {
			feed(b, u)
			drained = b.Drain()
		})
		seq++
		tr.call("wal.Log.AppendBatch", tick, root, func() { serr = log.AppendBatch(seq, drained) })
		if serr != nil {
			return serr
		}
		ss.around(tick >= warm, func() {
			tr.call("Engine.Step", tick, root, func() { eng.Step(drained) })
		})
		var snap *core.Snapshot
		var crc uint32
		tr.call("Snapshot.CRC32", tick, root, func() {
			snap = eng.Snapshot()
			crc = snap.CRC32()
		})
		tr.call("wal.Log.AppendTick", tick, root, func() {
			serr = log.AppendTick(snap.Epoch(), snap.Timestamp(), crc)
		})
		if serr != nil {
			return serr
		}
		d := snap.Delta()
		if d == nil {
			return fmt.Errorf("tick %d: snapshot without a delta", tick)
		}
		if tick >= warm {
			rows += d.Len()
		}
		tr.call("Delta.AppendBinary", tick, root, func() { frame = d.AppendBinary(frame[:0]) })
		var got *core.Delta
		tr.call("serve.DecodeDeltaFrame", tick, root, func() {
			got, _, _, serr = serve.DecodeDeltaFrame(serve.DeltaFrameDelta, frame)
		})
		if serr != nil {
			return serr
		}
		tr.call("Delta.Apply", tick, root, func() { consumer, serr = got.Apply(consumer) })
		tr.end(root)
		if serr != nil {
			return serr
		}
		if tick >= warm && tick < warm+shadowTicks {
			shadowSeq++
			fsyncMs = append(fsyncMs, tr.call("wal.Log(fsync=tick)", tick, -1, func() {
				if serr = shadow.AppendBatch(shadowSeq, drained); serr == nil {
					serr = shadow.AppendTick(snap.Epoch(), snap.Timestamp(), crc)
				}
			}))
		}
		return serr
	}

	var initial tickBodies
	initial[0] = [][]byte{enc.initial}
	if err := stage(-1, st.initial.asUpdates(), initial, "binary"); err != nil {
		return 0, err
	}
	walBase, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}
	orc := newOracle(st, res)
	for i := 0; i < nTicks; i++ {
		if err := stage(i, st.ticks[i], enc.ticks[i], sp.encoding); err != nil {
			return 0, err
		}
		orc.after(i, nTicks, st.ticks[i], eng, tr)
	}
	lm["core.oracle_mismatches"] = float64(orc.mismatches)
	res.Attempted++
	if got, want := consumer.CRC32(), eng.Snapshot().CRC32(); got != want {
		res.Failed++
		return 0, fmt.Errorf("staged consumer snapshot crc %08x, engine %08x", got, want)
	}
	walEnd, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}

	n := float64(nTicks - warm)
	stageP50 := func(name string) float64 { return p50(tr.perTick(name, warm, nTicks)) }
	lm["serve.decode_ms_p50"] = stageP50("serve.DecodeUpdates")
	lm["serve.coalesce_ms_p50"] = stageP50("serve.Batcher")
	lm["wal.append_batch_ms_p50"] = stageP50("wal.Log.AppendBatch")
	lm["wal.append_tick_ms_p50"] = stageP50("wal.Log.AppendTick")
	lm["core.snapshot_crc_ms_p50"] = stageP50("Snapshot.CRC32")
	lm["core.delta_encode_ms_p50"] = stageP50("Delta.AppendBinary")
	// The consumer's side of a delta: decode the frame, apply it.
	lm["core.delta_apply_ms_p50"] = stageP50("serve.DecodeDeltaFrame") + stageP50("Delta.Apply")
	lm["wal.kb_per_tick"] = float64(walEnd-walBase) / 1024 / float64(nTicks)
	lm["wal.fsync_tick_ms_p50"] = p50(fsyncMs)
	lm["core.rows_changed_frac"] = float64(rows) / n / float64(len(st.initial.queries))
	coreMetrics(sp, st, tr, lm, &ss, eng, warm, nTicks)
	for _, stage := range []string{"serve.DecodeUpdates", "serve.Batcher", "wal.Log.AppendBatch", "Engine.Step",
		"Snapshot.CRC32", "wal.Log.AppendTick", "Delta.AppendBinary", "serve.DecodeDeltaFrame", "Delta.Apply"} {
		stageSum += stageP50(stage)
	}
	return stageSum, nil
}
