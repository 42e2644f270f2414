package workload

import (
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/roadnet"
)

// TestTable2Deliveries pins what routing a Table-2 tick costs in counted
// work, on seed 1 at scale 0.25: Offers, the (object report, monitor) pairs
// classified, and Deliveries, the (edge run, monitor) pairs they were handed
// over in. Routing by edge hands each monitor an edge's reports in one
// delivery, so there are fewer deliveries than offers; both are the same at
// 1 and 4 workers, tick by tick, and exact for the seed.
func TestTable2Deliveries(t *testing.T) {
	const warm, ticks = 3, 10
	run := func(workers int) []core.StepStats {
		cfg := Default().Scale(0.25)
		r, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine {
			return core.NewIMAWith(n, core.Options{Workers: workers})
		})
		eng := r.Engine().(*core.Incremental)
		defer eng.Close()
		for i := 0; i < warm; i++ {
			eng.Step(r.GenerateStep())
		}
		out := []core.StepStats{eng.StepStats()}
		for i := 0; i < ticks; i++ {
			eng.Step(r.GenerateStep())
			out = append(out, eng.StepStats())
		}
		return out
	}
	serial, sharded := run(1), run(4)
	for i := 1; i <= ticks; i++ {
		a, b := serial[i], sharded[i]
		if a.Offers != b.Offers || a.Deliveries != b.Deliveries {
			t.Fatalf("tick %d: workers=1 counted %d offers in %d deliveries, workers=4 %d in %d",
				warm+i, a.Offers, a.Deliveries, b.Offers, b.Deliveries)
		}
	}
	first, last := serial[0], serial[ticks]
	offers, deliveries := last.Offers-first.Offers, last.Deliveries-first.Deliveries
	t.Logf("%d ticks: %d offers in %d deliveries (%.1f and %.1f a tick, %.2f offers a delivery)",
		ticks, offers, deliveries, float64(offers)/ticks, float64(deliveries)/ticks, float64(offers)/float64(deliveries))
	if deliveries >= offers {
		t.Errorf("%d deliveries for %d offers: routing by edge should need fewer", deliveries, offers)
	}
	// The offers are the per-report apply calls routing by report made on this
	// stream, one per (report, monitor of its old or new edge).
	const wantOffers, wantDeliveries = 200698, 83556
	if offers != wantOffers || deliveries != wantDeliveries {
		t.Errorf("counted %d offers in %d deliveries, want %d in %d", offers, deliveries, wantOffers, wantDeliveries)
	}
}
