package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/experiments"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
	"roadknn/internal/workload"
)

// Library workloads call the engine directly, back to back: the consumer
// holds a tick's changed rows the moment Step returns, so a tick's
// freshness is its Step time and the previous return is its due time.

const (
	// libraryRepeats replaces setupRepeats on the library path: a set-up
	// takes ~0.1 s there, too short for a steady median of five.
	libraryRepeats = 15

	oracleEvery   = 40 // ticks between oracle checks
	oracleQueries = 16 // queries sampled per check
	oracleTol     = 1e-6
)

// loadLibrary builds the network and the engine and loads a population
// through the library's own calls, until every query has a result.
func loadLibrary(sp *spec, cfg workload.Config, pop *population, opts core.Options) core.Engine {
	net := workload.BuildNetwork(cfg)
	for e, w := range pop.weights {
		net.G.SetWeight(graph.EdgeID(e), w)
	}
	for i, pos := range pop.objects {
		net.AddObject(roadnet.ObjectID(i), pos)
	}
	eng := experiments.EngineWith(sp.engine, opts)(net)
	for i, pos := range pop.queries {
		eng.Register(core.QueryID(i), pos, pop.k)
	}
	return eng
}

// sameNeighbors compares an engine result with the oracle's: equal length
// and rank-wise equal distances (objects at tied distances may swap).
func sameNeighbors(got, want []core.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > oracleTol {
			return false
		}
	}
	return true
}

// oracle holds an engine's results against core.BruteForceKNN: after every
// oracleEvery-th tick and the last one, oracleQueries sampled queries,
// between ticks with the clock stopped. It follows the query positions
// itself and counts into the run's attempted / failed operations.
type oracle struct {
	rng        *rand.Rand
	qpos       []roadnet.Position // index = query id
	k          int
	res        *result
	mismatches int
}

func newOracle(st *stream, res *result) *oracle {
	return &oracle{
		rng:  rand.New(rand.NewSource(st.cfg.Seed + 99)),
		qpos: slices.Clone(st.initial.queries),
		k:    st.cfg.K, res: res,
	}
}

// check samples the queries now.
func (o *oracle) check(eng core.Engine) {
	for i := 0; i < oracleQueries; i++ {
		id := o.rng.Intn(len(o.qpos))
		want := core.BruteForceKNN(eng.Network(), o.qpos[id], o.k)
		o.res.Attempted++
		if !sameNeighbors(eng.Result(core.QueryID(id)), want) {
			o.res.Failed++
			o.mismatches++
		}
	}
}

// after notes tick i of n as stepped and checks when a check is due; tr,
// when not nil, gets a span for the check.
func (o *oracle) after(i, n int, u core.Updates, eng core.Engine, tr *tracer) {
	for _, q := range u.Queries {
		o.qpos[q.ID] = q.New
	}
	if (i+1)%oracleEvery != 0 && i != n-1 {
		return
	}
	if tr == nil {
		o.check(eng)
		return
	}
	tr.call("core.BruteForceKNN", i, -1, func() { o.check(eng) })
}

// heapMB returns the live heap after a full collection. It collects
// twice: what a sync.Pool held survives the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// medianSetup runs setup n times and returns the median duration and the
// last product; the earlier ones are released first, and base is the live
// heap just before the kept one was built.
func medianSetup[T any](n int, setup func() (T, error), release func(T)) (product T, seconds, base float64, err error) {
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(product)
		}
		var zero T
		product = zero
		base = heapMB()
		t0 := time.Now()
		product, err = setup()
		if err != nil {
			return product, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return product, median(secs), base, nil
}

func measureLibrary(sp *spec, st *stream, res *result) error {
	opts := core.Options{Workers: sp.workers}
	eng, setupS, base, err := medianSetup(libraryRepeats, func() (core.Engine, error) {
		return loadLibrary(sp, st.cfg, &st.initial, opts), nil
	}, core.Engine.Close)
	if err != nil {
		return err
	}
	defer func() { eng.Close() }()
	progress("set up %d times", libraryRepeats)

	orc := newOracle(st, res)
	fresh := make([]float64, 0, len(st.ticks)-sp.warmup)
	reports := 0
	for i, u := range st.ticks {
		t0 := time.Now()
		eng.Step(u)
		dt := time.Since(t0)
		if i >= sp.warmup {
			fresh = append(fresh, ms(dt))
			reports += st.reports[i]
		}
		res.Attempted++
		orc.after(i, len(st.ticks), u, eng, nil)
	}
	progress("%d ticks stepped", len(st.ticks))
	res.set("freshness_ms_p50", percentile(fresh, 0.50), "ms")
	res.set("freshness_ms_p90", percentile(fresh, 0.90), "ms")
	res.set("updates_per_s", float64(reports)/(sum(fresh)/1e3), "reports/s")
	res.set("live_heap_mb", heapMB()-base, "MB")
	runtime.KeepAlive(st.ticks) // resident across both heap readings, so they cancel out
	res.set("setup_s", setupS, "s")
	res.Samples = len(fresh)
	res.SnapshotCRC = hex32(resultCRC(eng, len(orc.qpos)))

	// A library has no log to recover from: after a crash its caller
	// reloads the current population into a fresh engine. That cold restart
	// at the end-of-stream state is this path's recovery.
	eng.Close()
	eng, recoveryS, _, err := medianSetup(libraryRepeats, func() (core.Engine, error) {
		return loadLibrary(sp, st.cfg, &st.final, opts), nil
	}, core.Engine.Close)
	if err != nil {
		return err
	}
	progress("restarted %d times", libraryRepeats)
	res.set("recovery_s", recoveryS, "s")
	orc.qpos = st.final.queries
	orc.check(eng)
	return nil
}
