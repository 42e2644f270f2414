package workload

import (
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/gen"
	"roadknn/internal/planner"
	"roadknn/internal/roadnet"
)

func benchEngine(b *testing.B, mk func(*roadnet.Network) core.Engine, k int) {
	benchEngineAt(b, mk, k, 0.25)
}

func benchEngineAt(b *testing.B, mk func(*roadnet.Network) core.Engine, k int, scale float64) {
	cfg := Default().Scale(scale)
	cfg.K = k
	benchConfig(b, cfg, mk)
}

// benchConfig times mk's engine stepping over cfg's traffic, update
// generation included.
func benchConfig(b *testing.B, cfg Config, mk func(*roadnet.Network) core.Engine) {
	cfg.Timestamps = 1
	r, _ := NewRunner(cfg, mk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := r.GenerateStep()
		r.Engine().Step(u)
	}
}

func BenchmarkIMAK200(b *testing.B) {
	benchEngine(b, func(n *roadnet.Network) core.Engine { return core.NewIMA(n) }, 200)
}

func BenchmarkOVHK200(b *testing.B) {
	benchEngine(b, func(n *roadnet.Network) core.Engine { return core.NewOVH(n) }, 200)
}

// BenchmarkIMATable2 / BenchmarkOVHTable2 are the paper_default loop of
// BENCHMARK.json as a profiling target: Table-2 defaults at full size on
// one worker (go test -bench Table2 -benchtime 40x -cpuprofile ...).
// BenchmarkGMATable2 puts the grouped layer under the same traffic.
func BenchmarkIMATable2(b *testing.B) {
	benchEngineAt(b, func(n *roadnet.Network) core.Engine { return core.NewIMAWith(n, core.Options{Workers: 1}) }, 50, 1)
}

func BenchmarkOVHTable2(b *testing.B) {
	benchEngineAt(b, func(n *roadnet.Network) core.Engine { return core.NewOVHWith(n, core.Options{Workers: 1}) }, 50, 1)
}

func BenchmarkGMATable2(b *testing.B) {
	benchEngineAt(b, func(n *roadnet.Network) core.Engine { return core.NewGMAWith(n, core.Options{Workers: 1}) }, 50, 1)
}

// BenchmarkAUTOTable2 puts the adaptive engine under the Table-2 traffic of
// BenchmarkIMATable2, on one worker.
func BenchmarkAUTOTable2(b *testing.B) {
	benchEngineAt(b, func(n *roadnet.Network) core.Engine { return planner.NewWith(n, core.Options{Workers: 1}) }, 50, 1)
}

// hotspot is the traffic of the hotspot_auto workload of BENCHMARK.json:
// hotspot() of bench/workloads.go, copied, because that module is not
// importable from here.
func hotspot() Config {
	const h = 0.6
	cfg := Default().Scale(0.25)
	cfg.QryDist = gen.Uniform
	cfg.NumQueries = int(float64(cfg.NumQueries) / (1 - h))
	cfg.ObjAgility = 0.1 + 0.33*h
	cfg.HotspotFrac = h
	cfg.HotspotRadius = 0.08
	cfg.HotspotDrift = 0.005
	return cfg
}

// BenchmarkAUTOHotspot is the hotspot_auto loop as a profiling target for
// the planner and the grouped layer, on one worker, update generation
// included.
func BenchmarkAUTOHotspot(b *testing.B) {
	benchConfig(b, hotspot(), func(n *roadnet.Network) core.Engine { return planner.NewWith(n, core.Options{Workers: 1}) })
}

// BenchmarkAUTOHotspotW2 is hotspot_auto as benched, on 2 workers, with
// update generation outside the timer: it times Step alone.
func BenchmarkAUTOHotspotW2(b *testing.B) {
	benchSteps(b, hotspot(), func(n *roadnet.Network) core.Engine { return planner.NewWith(n, core.Options{Workers: 2}) })
}

// BenchmarkIMATable2Step is BenchmarkIMATable2 with update generation
// outside the timer: the paper_default loop's Step alone, as a profiling
// target for the step pipeline.
func BenchmarkIMATable2Step(b *testing.B) {
	benchSteps(b, Default(), func(n *roadnet.Network) core.Engine { return core.NewIMAWith(n, core.Options{Workers: 1}) })
}

// benchSteps times mk's engine stepping over cfg's traffic, generating each
// step's updates with the timer stopped.
func benchSteps(b *testing.B, cfg Config, mk func(*roadnet.Network) core.Engine) {
	cfg.Timestamps = 1
	r, _ := NewRunner(cfg, mk)
	defer r.Engine().Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := r.GenerateStep()
		b.StartTimer()
		r.Engine().Step(u)
	}
}
