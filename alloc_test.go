package roadknn_test

// Allocation-regression guard for the zero-allocation expansion core and
// the persistent worker pool: a warmed IMA/GMA Step must stay well under a
// generous allocation ceiling at workers=1 AND workers=4. Before the
// arena/treeStore refactor a serial step at this workload performed ~2000
// (IMA) / ~1400 (GMA) heap allocations; before the persistent pool the
// parallel pipeline added several hundred more per step (goroutine spawns,
// shard closures, sort.Slice boxing). Afterwards both pipelines sit well
// under 200 including workload generation. The ceiling is deliberately
// loose — machine-independent headroom, catching only order-of-magnitude
// regressions (a reintroduced per-step map, per-expansion buffer, or
// per-step goroutine spawning).

import (
	"fmt"
	"runtime"
	"testing"

	"roadknn/internal/experiments"
	"roadknn/internal/gen"
	"roadknn/internal/workload"
)

func TestStepAllocationRegression(t *testing.T) {
	// Includes GenerateStep's own allocations (update batch slices), which
	// AllocsPerRun cannot exclude; the refactored engines sit at ~100-200
	// allocs per step here.
	const ceiling = 600

	for _, workers := range []int{1, 4} {
		for _, engName := range []string{"IMA", "GMA"} {
			t.Run(fmt.Sprintf("%s/workers=%d", engName, workers), func(t *testing.T) {
				runAllocCheck(t, engName, workers, 0, 0, ceiling)
			})
		}
	}
}

// TestStepAllocationRegressionAuto is the guard for the adaptive engine on
// a hotspot workload: 60% of the queries re-snap around one drifting
// center every step, so the measured steps hold grouped query moves
// (detach + attach of endpoint nodes), direct moves, and re-plans with
// their migrations. The composite of two engines sat at ~760 allocations a
// step here (a fresh endpoint slice per attach and detach, per-step move
// and insert lists); the one core sits at ~100, like the static engines.
func TestStepAllocationRegressionAuto(t *testing.T) {
	const ceiling = 500

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("AUTO/workers=%d", workers), func(t *testing.T) {
			runAllocCheck(t, "AUTO", workers, 0, 0.6, ceiling)
		})
	}
}

// TestStepAllocationRegressionTopologyChurn repeats the guard with live
// network editing in every step. A structural edit legitimately allocates
// (a grown adjacency row, influence recomputation, freelist bookkeeping), but
// the cost must stay churn-proportional: one edit per step should add a
// bounded constant, never an O(V+E) rebuild's worth of allocations.
func TestStepAllocationRegressionTopologyChurn(t *testing.T) {
	const ceiling = 1200

	for _, engName := range []string{"IMA", "GMA"} {
		t.Run(engName, func(t *testing.T) {
			// 0.001 over ~1000 edges floors at one topology edit per step.
			runAllocCheck(t, engName, 1, 0.001, 0, ceiling)
		})
	}
}

func runAllocCheck(t *testing.T, engName string, workers int, topoAgility, hotspotFrac float64, ceiling int) {
	cfg := workload.Default().Scale(0.1)
	cfg.Seed = 1
	cfg.Workers = workers
	cfg.TopoAgility = topoAgility
	if hotspotFrac > 0 {
		cfg.QryDist = gen.Uniform
		cfg.HotspotFrac = hotspotFrac
		cfg.HotspotDrift = 0.01
	}
	r, _ := workload.NewRunner(cfg, experiments.EngineFor(engName, workers))
	eng := r.Engine()
	// Warm until edge object lists, per-monitor trees, router
	// work lists and arena buffers reach steady state.
	for i := 0; i < 15; i++ {
		eng.Step(r.GenerateStep())
	}
	avg, total := allocsPerRun(20, func() {
		eng.Step(r.GenerateStep())
	})
	if workers == 1 {
		t.Logf("%s workers=1: %.1f allocs per warmed Step (ceiling %d); exactly %d in the 20 measured Steps",
			engName, avg, ceiling, total)
	} else {
		// The pool's workers allocate as the scheduler interleaves them, so
		// the total moves between runs by a few dozen.
		t.Logf("%s workers=%d: %.1f allocs per warmed Step (ceiling %d); %d in the 20 measured Steps, varying with scheduling",
			engName, workers, avg, ceiling, total)
	}
	if avg > float64(ceiling) {
		t.Fatalf("%s workers=%d Step allocates %.1f times per call, above the regression ceiling %d",
			engName, workers, avg, ceiling)
	}
}

// allocsPerRun measures f as testing.AllocsPerRun(runs, f) does — at
// GOMAXPROCS 1, after one warm-up call — and returns both its reading, the
// integer-truncated mean, and the number of heap allocations over the
// measured calls, which the truncation can hide up to runs-1 of. The total
// is exact for a serial f; one that hands work to other goroutines
// allocates as they are scheduled.
func allocsPerRun(runs int, f func()) (avg float64, total uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	total = after.Mallocs - before.Mallocs
	return float64(total / uint64(runs)), total
}
