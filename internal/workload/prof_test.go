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

// BenchmarkAUTOHotspot is the hotspot_auto loop of BENCHMARK.json as a
// profiling target for the planner and the grouped layer, on one worker. The
// traffic is hotspot() of bench/workloads.go, copied: that module is not
// importable from here.
func BenchmarkAUTOHotspot(b *testing.B) {
	const h = 0.6
	cfg := Default().Scale(0.25)
	cfg.QryDist = gen.Uniform
	cfg.NumQueries = int(float64(cfg.NumQueries) / (1 - h))
	cfg.ObjAgility = 0.1 + 0.33*h
	cfg.HotspotFrac = h
	cfg.HotspotRadius = 0.08
	cfg.HotspotDrift = 0.005
	benchConfig(b, cfg, func(n *roadnet.Network) core.Engine { return planner.NewWith(n, core.Options{Workers: 1}) })
}
