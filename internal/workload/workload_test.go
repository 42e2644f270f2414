package workload

import (
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/gen"
	"roadknn/internal/roadnet"
)

func tinyConfig() Config {
	cfg := Default()
	cfg = cfg.Scale(0.01) // 100 edges, 1000 objects, 50 queries
	cfg.Timestamps = 5
	cfg.K = 3
	return cfg
}

func TestDefaultMatchesTable2(t *testing.T) {
	cfg := Default()
	if cfg.Edges != 10000 || cfg.NumObjects != 100000 || cfg.NumQueries != 5000 {
		t.Fatalf("default sizes wrong: %+v", cfg)
	}
	if cfg.K != 50 || cfg.EdgeAgility != 0.04 || cfg.ObjAgility != 0.10 || cfg.QryAgility != 0.10 {
		t.Fatalf("default parameters wrong: %+v", cfg)
	}
	if cfg.ObjDist != gen.Uniform || cfg.QryDist != gen.Gaussian {
		t.Fatalf("default distributions wrong: %+v", cfg)
	}
}

func TestScalePreservesRatios(t *testing.T) {
	cfg := Default().Scale(0.1)
	if cfg.Edges != 1000 || cfg.NumObjects != 10000 || cfg.NumQueries != 500 {
		t.Fatalf("scaled sizes wrong: %+v", cfg)
	}
	if cfg.K != 50 {
		t.Fatal("Scale must not touch K")
	}
	if c := Default().Scale(1e-9); c.Edges < 1 || c.NumObjects < 1 || c.NumQueries < 1 {
		t.Fatal("Scale floored below 1")
	}
}

func TestRunProducesMeasurements(t *testing.T) {
	cfg := tinyConfig()
	res := Run(cfg, func(n *roadnet.Network) core.Engine { return core.NewIMA(n) })
	if res.Engine != "IMA" {
		t.Fatalf("engine name = %q", res.Engine)
	}
	if res.Timestamps != cfg.Timestamps {
		t.Fatalf("timestamps = %d", res.Timestamps)
	}
	if res.TotalSeconds <= 0 || res.AvgStepSeconds <= 0 {
		t.Fatalf("timings not recorded: %+v", res)
	}
	if res.AvgSizeBytes <= 0 || res.MaxSizeBytes < res.AvgSizeBytes {
		t.Fatalf("sizes not recorded: %+v", res)
	}
}

// TestIdenticalStreamsAcrossEngines verifies that two runners with the same
// config generate identical update streams, so engine comparisons are fair.
func TestIdenticalStreamsAcrossEngines(t *testing.T) {
	cfg := tinyConfig()
	r1, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewOVH(n) })
	r2, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewGMA(n) })
	for ts := 0; ts < 3; ts++ {
		u1 := r1.GenerateStep()
		u2 := r2.GenerateStep()
		if len(u1.Objects) != len(u2.Objects) || len(u1.Queries) != len(u2.Queries) || len(u1.Edges) != len(u2.Edges) {
			t.Fatalf("ts %d: stream sizes differ", ts)
		}
		for i := range u1.Objects {
			if u1.Objects[i] != u2.Objects[i] {
				t.Fatalf("ts %d: object update %d differs", ts, i)
			}
		}
		for i := range u1.Edges {
			if u1.Edges[i] != u2.Edges[i] {
				t.Fatalf("ts %d: edge update %d differs", ts, i)
			}
		}
		r1.Engine().Step(u1)
		r2.Engine().Step(u2)
	}
}

// TestEnginesAgreeUnderWorkload is an end-to-end correctness check through
// the workload driver (complements the lockstep tests in core).
func TestEnginesAgreeUnderWorkload(t *testing.T) {
	cfg := tinyConfig()
	cfg.Timestamps = 8
	r1, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewOVH(n) })
	r2, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewIMA(n) })
	r3, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewGMA(n) })
	for ts := 0; ts < cfg.Timestamps; ts++ {
		u := r1.GenerateStep()
		r2.GenerateStep() // keep rng in sync (streams proven identical above)
		r3.GenerateStep()
		r1.Engine().Step(u)
		r2.Engine().Step(u)
		r3.Engine().Step(u)
	}
	for q := 0; q < cfg.NumQueries; q++ {
		a := r1.Engine().Result(core.QueryID(q))
		b := r2.Engine().Result(core.QueryID(q))
		c := r3.Engine().Result(core.QueryID(q))
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("query %d: result lengths differ (%d/%d/%d)", q, len(a), len(b), len(c))
		}
		for i := range a {
			if diff(a[i].Dist, b[i].Dist) > 1e-6 || diff(a[i].Dist, c[i].Dist) > 1e-6 {
				t.Fatalf("query %d entry %d: dists differ: %v / %v / %v", q, i, a[i], b[i], c[i])
			}
		}
	}
}

// TestEnginesAgreeUnderTopologyChurn extends the cross-engine agreement
// check with live network editing: every timestamp structurally edits the
// network (TopoAgility) on top of the usual churn, and all three engines
// must still agree on every result.
func TestEnginesAgreeUnderTopologyChurn(t *testing.T) {
	cfg := tinyConfig()
	cfg.Timestamps = 8
	cfg.TopoAgility = 0.02 // >= 1 edit per timestamp on the tiny network
	r1, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewOVH(n) })
	r2, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewIMA(n) })
	r3, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewGMA(n) })
	edits := 0
	for ts := 0; ts < cfg.Timestamps; ts++ {
		u := r1.GenerateStep()
		r2.GenerateStep() // keep rng in sync
		r3.GenerateStep()
		edits += len(u.Topology)
		r1.Engine().Step(u)
		r2.Engine().Step(u)
		r3.Engine().Step(u)
	}
	if edits == 0 {
		t.Fatal("TopoAgility produced no edits")
	}
	for q := 0; q < cfg.NumQueries; q++ {
		a := r1.Engine().Result(core.QueryID(q))
		b := r2.Engine().Result(core.QueryID(q))
		c := r3.Engine().Result(core.QueryID(q))
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("query %d: result lengths differ (%d/%d/%d)", q, len(a), len(b), len(c))
		}
		for i := range a {
			if diff(a[i].Dist, b[i].Dist) > 1e-6 || diff(a[i].Dist, c[i].Dist) > 1e-6 {
				t.Fatalf("query %d entry %d: dists differ: %v / %v / %v", q, i, a[i], b[i], c[i])
			}
		}
	}
}

func TestTopoAgilityRejectsBrinkhoff(t *testing.T) {
	cfg := tinyConfig()
	cfg.Movement = Brinkhoff
	cfg.TopoAgility = 0.02
	r, _ := NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewIMA(n) })
	defer func() {
		if recover() == nil {
			t.Fatal("TopoAgility with Brinkhoff movement did not panic")
		}
	}()
	r.GenerateStep()
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestBrinkhoffMovementRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Movement = Brinkhoff
	cfg.Timestamps = 3
	res := Run(cfg, func(n *roadnet.Network) core.Engine { return core.NewGMA(n) })
	if res.Timestamps != 3 {
		t.Fatalf("result = %+v", res)
	}
}

func TestOldenburgNetworkOption(t *testing.T) {
	cfg := tinyConfig()
	cfg.Oldenburg = true
	net := BuildNetwork(cfg)
	if net.G.NumEdges() < 3500 {
		t.Fatalf("oldenburg-like network too small: %d edges", net.G.NumEdges())
	}
}
