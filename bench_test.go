// Benchmarks regenerating each figure of the paper's evaluation at reduced
// scale: one benchmark per figure, with one sub-benchmark per engine at the
// figure's most characteristic sweep point, measuring seconds per
// monitoring timestamp (the paper's metric).
//
// The full parameter sweeps behind the figures are produced by
// cmd/benchrunner; these benchmarks exist so `go test -bench .` exercises
// every experiment configuration and gives comparable per-step numbers.
package roadknn_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadknn"
	"roadknn/internal/core"
	"roadknn/internal/experiments"
	"roadknn/internal/workload"
)

// benchScale keeps a full `go test -bench .` run in the minutes range;
// increase it (or use cmd/benchrunner) for production-scale measurements.
const benchScale = 0.1

// benchTimestamps is how many simulation steps each op measures.
const benchTimestamps = 1

// benchEngines are the engines of the benchmarks that run the default
// workload instead of a figure's point.
var benchEngines = []string{"OVH", "IMA", "GMA"}

func benchmarkExperimentPoint(b *testing.B, expID string, pointIdx int) {
	exps := experiments.All(benchScale, benchTimestamps, 1)
	e := experiments.ByID(exps, expID)
	if e == nil {
		b.Fatalf("unknown experiment %s", expID)
	}
	if pointIdx >= len(e.Points) {
		b.Fatalf("%s has no point %d", expID, pointIdx)
	}
	p := e.Points[pointIdx]
	for _, engName := range e.Engines {
		mk := experiments.EngineFor(engName, p.Cfg.Workers)
		b.Run(engName, func(b *testing.B) {
			r, _ := workload.NewRunner(p.Cfg, mk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Engine().Step(r.GenerateStep())
			}
			if e.Metric == experiments.Mem {
				b.ReportMetric(float64(r.Engine().SizeBytes())/1024, "KB")
			}
		})
	}
}

// Each BenchmarkFigNN regenerates the corresponding figure's default point.
// Point indices pick the paper's default parameter value within the sweep
// (e.g. N=100K is index 2 of Figure 13a's sweep).

func BenchmarkFig13aObjectCardinality(b *testing.B) { benchmarkExperimentPoint(b, "f13a", 2) }
func BenchmarkFig13bQueryCardinality(b *testing.B)  { benchmarkExperimentPoint(b, "f13b", 2) }
func BenchmarkFig14aK(b *testing.B)                 { benchmarkExperimentPoint(b, "f14a", 2) }
func BenchmarkFig14bEdgeAgility(b *testing.B)       { benchmarkExperimentPoint(b, "f14b", 2) }
func BenchmarkFig15aObjectAgility(b *testing.B)     { benchmarkExperimentPoint(b, "f15a", 2) }
func BenchmarkFig15bObjectSpeed(b *testing.B)       { benchmarkExperimentPoint(b, "f15b", 2) }
func BenchmarkFig16aQueryAgility(b *testing.B)      { benchmarkExperimentPoint(b, "f16a", 2) }
func BenchmarkFig16bQuerySpeed(b *testing.B)        { benchmarkExperimentPoint(b, "f16b", 2) }
func BenchmarkFig17aDistributions(b *testing.B)     { benchmarkExperimentPoint(b, "f17a", 1) }
func BenchmarkFig17bNetworkSize(b *testing.B)       { benchmarkExperimentPoint(b, "f17b", 2) }
func BenchmarkFig18aMemoryVsQ(b *testing.B)         { benchmarkExperimentPoint(b, "f18a", 2) }
func BenchmarkFig18bMemoryVsK(b *testing.B)         { benchmarkExperimentPoint(b, "f18b", 2) }
func BenchmarkFig19aBrinkhoffQ(b *testing.B)        { benchmarkExperimentPoint(b, "f19a", 3) }
func BenchmarkFig19bBrinkhoffK(b *testing.B)        { benchmarkExperimentPoint(b, "f19b", 2) }

// Ablations (experiments abl-il and abl-seq): influence-list filtering and
// the bounded in-sequence walk.
func BenchmarkAblationInfluenceFiltering(b *testing.B) { benchmarkExperimentPoint(b, "abl-il", 1) }
func BenchmarkAblationBoundedWalk(b *testing.B)        { benchmarkExperimentPoint(b, "abl-seq", 1) }

// BenchmarkFigureParallelStep measures one monitoring timestamp per engine
// at the default workload with the worker pool sized to GOMAXPROCS, so a
// `go test -bench BenchmarkFigure -cpu 1,4` run sweeps the parallel sharded
// pipeline across worker counts (workers follow -cpu; at -cpu 1 the
// pipeline is serial). Results are identical across worker counts — only
// the per-step wall time changes.
func BenchmarkFigureParallelStep(b *testing.B) {
	cfg := workload.Default().Scale(benchScale)
	for _, engName := range benchEngines {
		b.Run(engName, func(b *testing.B) {
			// Workers: 0 resolves to GOMAXPROCS, i.e. the -cpu value.
			r, _ := workload.NewRunner(cfg, experiments.EngineFor(engName, 0))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Engine().Step(r.GenerateStep())
			}
		})
	}
}

// BenchmarkFigureStepAllocs measures one monitoring Step per engine with
// workload generation excluded from the timed (and allocation-counted)
// region, so allocs/op and B/op reflect the engines' expansion core alone.
func BenchmarkFigureStepAllocs(b *testing.B) {
	cfg := workload.Default().Scale(benchScale)
	for _, engName := range benchEngines {
		b.Run(engName, func(b *testing.B) {
			r, _ := workload.NewRunner(cfg, experiments.EngineFor(engName, 1))
			eng := r.Engine()
			// Warm the per-monitor and per-worker buffers so the steady
			// state is measured, not first-touch growth (edge object lists
			// and per-monitor scratch converge over the first ~dozen steps).
			for i := 0; i < 12; i++ {
				eng.Step(r.GenerateStep())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := r.GenerateStep()
				b.StartTimer()
				eng.Step(u)
			}
		})
	}
}

// BenchmarkServingSnapshotDuringStep measures Step throughput on a
// serving engine while reader goroutines hammer the epoch-versioned
// snapshot path the whole time. The readers=0 sub-benchmark is the
// baseline; the others demonstrate that snapshot reads complete
// concurrently with Step without blocking it — Step degrades only by CPU
// sharing (visible on multi-core hosts as near-constant ns/op), and the
// sustained reader throughput is reported as the reads/s metric.
func BenchmarkServingSnapshotDuringStep(b *testing.B) {
	for _, readers := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			cfg := workload.Default().Scale(benchScale)
			cfg.Workers = 1
			mk := experiments.EngineWith("GMA", core.Options{Workers: 1, Serving: true})
			r, _ := workload.NewRunner(cfg, mk)
			eng := r.Engine()
			defer eng.Close()
			eng.Step(r.GenerateStep()) // publish a first stepped snapshot

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var reads atomic.Int64
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var local int64
					var sink float64
					for {
						select {
						case <-stop:
							reads.Add(local)
							benchSink(sink)
							return
						default:
						}
						snap := eng.Snapshot()
						for i := 0; i < snap.Len(); i++ {
							if _, nns := snap.At(i); len(nns) > 0 {
								sink += nns[0].Dist
							}
						}
						local += int64(snap.Len())
					}
				}()
			}
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step(r.GenerateStep())
			}
			b.StopTimer()
			wall := time.Since(start).Seconds()
			close(stop)
			wg.Wait()
			if readers > 0 && wall > 0 {
				b.ReportMetric(float64(reads.Load())/wall, "reads/s")
			}
		})
	}
}

// benchSink defeats dead-code elimination of the reader loops.
//
//go:noinline
func benchSink(v float64) float64 { return v }

// BenchmarkInitialComputation measures the Figure-2 from-scratch search
// (initial result computation) per query, across k values.
func BenchmarkInitialComputation(b *testing.B) {
	for _, k := range []int{1, 10, 50, 200} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := workload.Default().Scale(benchScale)
			cfg.K = k
			cfg.NumQueries = 1 // registration cost is measured separately below
			r, _ := workload.NewRunner(cfg, experiments.EngineFor("OVH", 0))
			eng := r.Engine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Step with no updates recomputes every query from scratch.
				eng.Step(roadknn.Updates{})
			}
		})
	}
}
