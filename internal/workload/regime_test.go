package workload

import (
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/roadnet"
)

// TestTable2Regime puts the regime Table 2 drives IMA into on file: how many
// monitors a timestamp reaches, how little of each it touches, and how often
// restoring one has to go back to the graph. With the candidate store
// keeping what an expansion scanned beyond the k-th, an object-only change
// of the k-th inside the covered radius costs no re-expansion; what is left
// is forced by edge updates and in-tree query moves.
func TestTable2Regime(t *testing.T) {
	const ticks = 10
	for _, k := range []int{10, 50, 200} {
		cfg := Default().Scale(0.25)
		cfg.K = k
		r, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine {
			return core.NewIMAWith(n, core.Options{Workers: 1})
		})
		eng := r.Engine().(*core.Incremental)
		for i := 0; i < 3; i++ { // past the first ticks' fresh trees
			eng.Step(r.GenerateStep())
		}
		before := eng.StepStats()
		for i := 0; i < ticks; i++ {
			eng.Step(r.GenerateStep())
		}
		s := eng.StepStats()
		affected := float64(s.Affected - before.Affected)
		unforced := float64((s.Reexpansions - s.ForcedReexpansions) - (before.Reexpansions - before.ForcedReexpansions))
		t.Logf("k=%d: affected_frac %.3f, touched_per_affected %.1f, per finalize: recomputes %.3f, forced re-expansions %.3f, unforced %.3f, idle %.3f, nodes verified %.2f",
			k, affected/float64(ticks*cfg.NumQueries),
			float64(s.Touched-before.Touched)/affected,
			float64(s.Recomputes-before.Recomputes)/affected,
			float64(s.ForcedReexpansions-before.ForcedReexpansions)/affected,
			unforced/affected,
			float64(s.IdleReexpansions-before.IdleReexpansions)/affected,
			float64(s.NodesVerified-before.NodesVerified)/affected)
		if k == 50 && unforced/affected > 0.10 {
			t.Errorf("k=50: %.3f unforced re-expansions per finalize, want <= 0.10", unforced/affected)
		}
	}
}
