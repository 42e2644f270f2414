package workload

import (
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/roadnet"
)

func benchEngine(b *testing.B, mk func(*roadnet.Network) core.Engine, k int) {
	benchEngineAt(b, mk, k, 0.25)
}

func benchEngineAt(b *testing.B, mk func(*roadnet.Network) core.Engine, k int, scale float64) {
	cfg := Default().Scale(scale)
	cfg.K = k
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
func BenchmarkIMATable2(b *testing.B) {
	benchEngineAt(b, func(n *roadnet.Network) core.Engine { return core.NewIMAWith(n, core.Options{Workers: 1}) }, 50, 1)
}

func BenchmarkOVHTable2(b *testing.B) {
	benchEngineAt(b, func(n *roadnet.Network) core.Engine { return core.NewOVHWith(n, core.Options{Workers: 1}) }, 50, 1)
}
