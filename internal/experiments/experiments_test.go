package experiments

import (
	"testing"

	"roadknn/internal/workload"
)

func TestRegistryCoversAllFigures(t *testing.T) {
	exps := All(0.1, 5, 1)
	want := []string{
		"f13a", "f13b", "f14a", "f14b", "f15a", "f15b",
		"f16a", "f16b", "f17a", "f17b", "f18a", "f18b", "f19a", "f19b",
	}
	// The paper's figures plus the two ablations: the service layers are
	// the claim-bearing benchmark's (bench/), not the registry's.
	if len(exps) != len(want)+2 {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want)+2)
	}
	for _, id := range []string{"abl-il", "abl-seq"} {
		if ByID(exps, id) == nil {
			t.Fatalf("missing ablation %s", id)
		}
	}
	for _, id := range want {
		e := ByID(exps, id)
		if e == nil {
			t.Fatalf("missing experiment %s", id)
		}
		if len(e.Points) < 2 {
			t.Fatalf("%s has %d points", id, len(e.Points))
		}
		if len(e.Engines) < 2 {
			t.Fatalf("%s runs %d engines", id, len(e.Engines))
		}
		if e.Shape == "" || e.Title == "" {
			t.Fatalf("%s lacks documentation", id)
		}
	}
	if ByID(exps, "nope") != nil {
		t.Fatal("ByID returned a bogus experiment")
	}
}

func TestScalingAppliesToSweeps(t *testing.T) {
	exps := All(0.1, 5, 1)
	f13a := ByID(exps, "f13a")
	if got := f13a.Points[0].Cfg.NumObjects; got != 1000 {
		t.Fatalf("scaled N = %d, want 1000", got)
	}
	if got := f13a.Points[0].Cfg.K; got != 50 {
		t.Fatalf("K must not scale, got %d", got)
	}
	f14a := ByID(exps, "f14a")
	if got := f14a.Points[0].Cfg.K; got != 1 {
		t.Fatalf("f14a first k = %d, want 1", got)
	}
}

func TestBrinkhoffFiguresConfigured(t *testing.T) {
	exps := All(0.1, 5, 1)
	for _, id := range []string{"f19a", "f19b"} {
		e := ByID(exps, id)
		for _, p := range e.Points {
			if p.Cfg.Movement != workload.Brinkhoff || !p.Cfg.Oldenburg {
				t.Fatalf("%s point %s not using the Brinkhoff/Oldenburg setup", id, p.Label)
			}
		}
	}
}

// TestTopoMicroIncrementalWins is the CI-scale version of the perf claim
// behind live topology edits: patching the adjacency for one edit must be
// dramatically cheaper than rebuilding the graph. The benchmark's graph.*
// metrics carry the full-size evidence; here a modest threshold avoids
// timer flake on loaded runners while still catching any regression to
// O(V+E) per edit.
func TestTopoMicroIncrementalWins(t *testing.T) {
	m := TopoMicro(10000, 1)
	if m.Edges < 10000 {
		t.Fatalf("generator produced %d edges, want >= 10000", m.Edges)
	}
	if m.IncrementalNs <= 0 || m.ColdNs <= 0 {
		t.Fatalf("timings not measured: %+v", m)
	}
	if m.Speedup < 5 {
		t.Fatalf("single-edit patch only %.1fx cheaper than a from-scratch rebuild, want >= 5x", m.Speedup)
	}
}

func TestCellRunsTinyExperiment(t *testing.T) {
	exps := All(0.004, 2, 1) // ~40 edges, 400 objects, 20 queries
	f13a := ByID(exps, "f13a")
	v := Cell(f13a, f13a.Points[0], "IMA")
	if v <= 0 {
		t.Fatalf("Cell returned %g", v)
	}
	f18a := ByID(exps, "f18a")
	if v := Cell(f18a, f18a.Points[0], "GMA"); v <= 0 {
		t.Fatalf("mem Cell returned %g", v)
	}
}
