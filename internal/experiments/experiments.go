// Package experiments defines every table and figure of the paper's
// evaluation (§6) as a parameter sweep over workload configurations, so
// that the benchmark harness (cmd/benchrunner) and the Go benchmarks
// (bench_test.go) regenerate the same series from one registry.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/planner"
	"roadknn/internal/roadnet"
	"roadknn/internal/workload"
)

// Metric selects what a figure reports.
type Metric int

const (
	// CPU is processing time per timestamp in seconds (Figures 13-17, 19).
	CPU Metric = iota
	// Mem is the engines' bookkeeping size in KBytes (Figure 18).
	Mem
)

// Point is one x-axis position of a figure.
type Point struct {
	Label string
	Cfg   workload.Config
}

// Experiment is one figure of §6.
type Experiment struct {
	ID      string // e.g. "f13a"
	Title   string
	Param   string // x-axis name
	Metric  Metric
	Engines []string // engine names to run
	Points  []Point
	// Shape documents the qualitative result the paper reports;
	// cmd/benchrunner prints it next to the measured series.
	Shape string
}

// EngineFor returns the constructor for the named engine with the given
// worker-pool size (0 = GOMAXPROCS, 1 = serial), or nil for an unknown
// name. This is how the harness threads the Config.Workers axis into
// engine construction.
func EngineFor(name string, workers int) func(*roadnet.Network) core.Engine {
	return EngineWith(name, core.Options{Workers: workers})
}

// EngineWith returns the constructor for the named engine with full
// options (worker-pool size and the serving snapshot read path), or nil
// for an unknown name.
func EngineWith(name string, o core.Options) func(*roadnet.Network) core.Engine {
	switch name {
	case "AUTO":
		return func(n *roadnet.Network) core.Engine { return planner.NewWith(n, o) }
	case "OVH":
		return func(n *roadnet.Network) core.Engine { return core.NewOVHWith(n, o) }
	case "IMA":
		return func(n *roadnet.Network) core.Engine { return core.NewIMAWith(n, o) }
	case "GMA":
		return func(n *roadnet.Network) core.Engine { return core.NewGMAWith(n, o) }
	case "IMA-NF":
		return func(n *roadnet.Network) core.Engine { return core.NewIMAUnfilteredWith(n, o) }
	case "GMA-naive":
		return func(n *roadnet.Network) core.Engine { return core.NewGMANaiveWith(n, o) }
	}
	return nil
}

var allEngines = []string{"OVH", "IMA", "GMA"}

// All returns every experiment, scaled by scale (network/object/query sizes
// multiplied together; k and agilities untouched) with the given number of
// timestamps per run.
func All(scale float64, timestamps int, seed int64) []Experiment {
	base := workload.Default()
	base.Seed = seed
	base.Timestamps = timestamps
	// The paper figures measure the serial algorithms' CPU time per
	// timestamp; the worker pool would fold multi-core speedup into the
	// metric and distort the engine ratios, so figures pin Workers to 1
	// (benchrunner -workers overrides it).
	base.Workers = 1

	mk := func(mut func(*workload.Config)) workload.Config {
		cfg := base
		mut(&cfg)
		cfg = cfg.Scale(scale)
		return cfg
	}
	kilo := func(n int) string {
		if n >= 1000 && n%1000 == 0 {
			return fmt.Sprintf("%dK", n/1000)
		}
		return fmt.Sprint(n)
	}

	var exps []Experiment

	// Figure 13(a): CPU vs object cardinality N.
	{
		e := Experiment{
			ID: "f13a", Title: "CPU time vs object cardinality N",
			Param: "N", Metric: CPU, Engines: allEngines,
			Shape: "GMA < IMA < OVH everywhere; cost dips then flattens with N; all scale well",
		}
		for _, n := range []int{10000, 50000, 100000, 150000, 200000} {
			n := n
			e.Points = append(e.Points, Point{kilo(n), mk(func(c *workload.Config) { c.NumObjects = n })})
		}
		exps = append(exps, e)
	}

	// Figure 13(b): CPU vs query cardinality Q.
	{
		e := Experiment{
			ID: "f13b", Title: "CPU time vs query cardinality Q",
			Param: "Q", Metric: CPU, Engines: allEngines,
			Shape: "GMA's advantage over IMA and OVH grows with Q (shared execution)",
		}
		for _, q := range []int{1000, 3000, 5000, 7000, 10000} {
			q := q
			e.Points = append(e.Points, Point{kilo(q), mk(func(c *workload.Config) { c.NumQueries = q })})
		}
		exps = append(exps, e)
	}

	// Figure 14(a): CPU vs k.
	{
		e := Experiment{
			ID: "f14a", Title: "CPU time vs number of NNs k (log scale)",
			Param: "k", Metric: CPU, Engines: allEngines,
			Shape: "IMA wins at k=1; GMA best for k >= 25 and the gap grows with k",
		}
		for _, k := range []int{1, 25, 50, 100, 200} {
			k := k
			e.Points = append(e.Points, Point{fmt.Sprint(k), mk(func(c *workload.Config) { c.K = k })})
		}
		exps = append(exps, e)
	}

	// Figure 14(b): CPU vs edge agility.
	{
		e := Experiment{
			ID: "f14b", Title: "CPU time vs edge agility f_edg",
			Param: "f_edg", Metric: CPU, Engines: allEngines,
			Shape: "IMA and GMA rise with f_edg; GMA much less sensitive; OVH flat and highest",
		}
		for _, f := range []float64{0.01, 0.02, 0.04, 0.08, 0.16} {
			f := f
			e.Points = append(e.Points, Point{fmt.Sprintf("%g%%", f*100), mk(func(c *workload.Config) { c.EdgeAgility = f })})
		}
		exps = append(exps, e)
	}

	// Figure 15(a): CPU vs object agility.
	{
		e := Experiment{
			ID: "f15a", Title: "CPU time vs object agility f_obj",
			Param: "f_obj", Metric: CPU, Engines: allEngines,
			Shape: "IMA and GMA rise with f_obj; GMA more robust; OVH flat",
		}
		for _, f := range []float64{0, 0.05, 0.10, 0.15, 0.20} {
			f := f
			e.Points = append(e.Points, Point{fmt.Sprintf("%g%%", f*100), mk(func(c *workload.Config) { c.ObjAgility = f })})
		}
		exps = append(exps, e)
	}

	// Figure 15(b): CPU vs object speed.
	{
		e := Experiment{
			ID: "f15b", Title: "CPU time vs object speed v_obj",
			Param: "v_obj", Metric: CPU, Engines: allEngines,
			Shape: "all algorithms practically unaffected by v_obj",
		}
		for _, v := range []float64{0.25, 0.5, 1, 2, 4} {
			v := v
			e.Points = append(e.Points, Point{fmt.Sprint(v), mk(func(c *workload.Config) { c.ObjSpeed = v })})
		}
		exps = append(exps, e)
	}

	// Figure 16(a): CPU vs query agility.
	{
		e := Experiment{
			ID: "f16a", Title: "CPU time vs query agility f_qry",
			Param: "f_qry", Metric: CPU, Engines: allEngines,
			Shape: "IMA degrades with f_qry (tree invalidation); GMA nearly flat",
		}
		for _, f := range []float64{0, 0.05, 0.10, 0.15, 0.20} {
			f := f
			e.Points = append(e.Points, Point{fmt.Sprintf("%g%%", f*100), mk(func(c *workload.Config) { c.QryAgility = f })})
		}
		exps = append(exps, e)
	}

	// Figure 16(b): CPU vs query speed.
	{
		e := Experiment{
			ID: "f16b", Title: "CPU time vs query speed v_qry",
			Param: "v_qry", Metric: CPU, Engines: allEngines,
			Shape: "GMA constant; IMA rises slightly with v_qry (less valid tree retained)",
		}
		for _, v := range []float64{0.25, 0.5, 1, 2, 4} {
			v := v
			e.Points = append(e.Points, Point{fmt.Sprint(v), mk(func(c *workload.Config) { c.QrySpeed = v })})
		}
		exps = append(exps, e)
	}

	// Figure 17(a): CPU for distribution combinations.
	{
		e := Experiment{
			ID: "f17a", Title: "CPU time vs object/query distributions",
			Param: "obj/qry", Metric: CPU, Engines: allEngines,
			Shape: "GMA best for Gaussian queries; IMA best for uniform queries; both beat OVH",
		}
		combos := []struct {
			label  string
			od, qd gen.Distribution
		}{
			{"U/U", gen.Uniform, gen.Uniform},
			{"U/G", gen.Uniform, gen.Gaussian},
			{"G/U", gen.Gaussian, gen.Uniform},
			{"G/G", gen.Gaussian, gen.Gaussian},
		}
		for _, cb := range combos {
			cb := cb
			e.Points = append(e.Points, Point{cb.label, mk(func(c *workload.Config) {
				c.ObjDist, c.QryDist = cb.od, cb.qd
			})})
		}
		exps = append(exps, e)
	}

	// Figure 17(b): CPU vs network size (10 objects and 0.5 queries/edge).
	{
		e := Experiment{
			ID: "f17b", Title: "CPU time vs network size (log scale)",
			Param: "edges", Metric: CPU, Engines: allEngines,
			Shape: "all grow roughly linearly in network size at fixed densities; GMA < IMA < OVH",
		}
		for _, m := range []int{1000, 5000, 10000, 50000, 100000} {
			m := m
			e.Points = append(e.Points, Point{kilo(m), mk(func(c *workload.Config) {
				c.Edges = m
				c.NumObjects = 10 * m
				c.NumQueries = m / 2
			})})
		}
		exps = append(exps, e)
	}

	// Figure 18(a): memory vs query cardinality (IMA vs GMA).
	{
		e := Experiment{
			ID: "f18a", Title: "Memory vs query cardinality Q",
			Param: "Q", Metric: Mem, Engines: []string{"IMA", "GMA"},
			Shape: "IMA > GMA; IMA grows with Q (one tree per query), GMA scales gracefully",
		}
		for _, q := range []int{1000, 3000, 5000, 7000, 10000} {
			q := q
			e.Points = append(e.Points, Point{kilo(q), mk(func(c *workload.Config) { c.NumQueries = q })})
		}
		exps = append(exps, e)
	}

	// Figure 18(b): memory vs k (IMA vs GMA).
	{
		e := Experiment{
			ID: "f18b", Title: "Memory vs number of NNs k",
			Param: "k", Metric: Mem, Engines: []string{"IMA", "GMA"},
			Shape: "gap between IMA and GMA widens with k (larger trees)",
		}
		for _, k := range []int{1, 25, 50, 100, 200} {
			k := k
			e.Points = append(e.Points, Point{fmt.Sprint(k), mk(func(c *workload.Config) { c.K = k })})
		}
		exps = append(exps, e)
	}

	// Figure 19(a): Brinkhoff generator on the Oldenburg-like network,
	// CPU vs Q (N = 64K).
	{
		e := Experiment{
			ID: "f19a", Title: "Brinkhoff generator: CPU time vs Q (Oldenburg)",
			Param: "Q", Metric: CPU, Engines: allEngines,
			Shape: "as in 13(b): GMA's lead over IMA and OVH grows with Q",
		}
		for _, q := range []int{1000, 2000, 4000, 8000, 16000, 32000, 64000} {
			q := q
			e.Points = append(e.Points, Point{kilo(q), mk(func(c *workload.Config) {
				c.Oldenburg = true
				c.Movement = workload.Brinkhoff
				c.NumObjects = 64000
				c.NumQueries = q
			})})
		}
		exps = append(exps, e)
	}

	// Figure 19(b): Brinkhoff generator, CPU vs k (N = 64K, Q = 8K).
	{
		e := Experiment{
			ID: "f19b", Title: "Brinkhoff generator: CPU time vs k (Oldenburg, log scale)",
			Param: "k", Metric: CPU, Engines: allEngines,
			Shape: "GMA best except k=1 where IMA wins, as in 14(a)",
		}
		for _, k := range []int{1, 25, 50, 100, 200} {
			k := k
			e.Points = append(e.Points, Point{fmt.Sprint(k), mk(func(c *workload.Config) {
				c.Oldenburg = true
				c.Movement = workload.Brinkhoff
				c.NumObjects = 64000
				c.NumQueries = 8000
				c.K = k
			})})
		}
		exps = append(exps, e)
	}

	// Ablation A1: value of influence-list filtering (paper §4.2).
	{
		e := Experiment{
			ID: "abl-il", Title: "Ablation: IMA with vs without influence-list filtering",
			Param: "Q", Metric: CPU, Engines: []string{"IMA", "IMA-NF", "OVH"},
			Shape: "without filtering, IMA degrades toward (beyond) OVH as Q grows",
		}
		for _, q := range []int{1000, 5000, 10000} {
			q := q
			e.Points = append(e.Points, Point{kilo(q), mk(func(c *workload.Config) { c.NumQueries = q })})
		}
		exps = append(exps, e)
	}

	// Ablation A2: value of the bounded in-sequence walk (paper §5 text).
	{
		e := Experiment{
			ID: "abl-seq", Title: "Ablation: GMA bounded walk vs naive Lemma-1 union",
			Param: "k", Metric: CPU, Engines: []string{"GMA", "GMA-naive"},
			Shape: "naive evaluation pays for whole sequences; gap largest at small k",
		}
		for _, k := range []int{1, 50, 200} {
			k := k
			e.Points = append(e.Points, Point{fmt.Sprint(k), mk(func(c *workload.Config) { c.K = k })})
		}
		exps = append(exps, e)
	}

	return exps
}

// TopoMicroResult is the live topology-edit micro measurement (the
// benchmark's graph.refreeze_incremental_us / graph.compact_cold_us): the
// per-call cost of one in-place edge edit versus rebuilding the graph from
// scratch, the alternative a graph without in-place edits would pay.
type TopoMicroResult struct {
	Edges         int
	ColdNs        float64 // from-scratch rebuild of the same graph per call
	IncrementalNs float64 // one in-place RemoveEdge + AddEdge cycle per call
	Speedup       float64
}

// TopoMicro measures the edit-vs-rebuild ratio on a SanFranciscoLike
// network with the given edge count: a loop of single-edge remove/re-add
// cycles, each patching its endpoints' adjacency rows in place, against
// repeated rebuilds of a graph holding the same nodes and live edges (the
// full O(V+E) cost a non-incremental design would pay per edit).
func TopoMicro(edges int, seed int64) TopoMicroResult {
	g := gen.SanFranciscoLike(edges, seed)
	rng := rand.New(rand.NewSource(seed + 31))

	cycle := func(eid graph.EdgeID) {
		e := g.Edge(eid)
		u, v, w := e.U, e.V, e.W
		g.RemoveEdge(eid)
		g.AddEdge(u, v, w) // the freelist hands eid straight back
	}
	pick := func() graph.EdgeID { return graph.EdgeID(rng.Intn(g.NumEdges())) }

	const edits = 256
	for i := 0; i < 16; i++ { // steady state: warm the touched rows
		cycle(pick())
	}
	start := time.Now()
	for i := 0; i < edits; i++ {
		cycle(pick())
	}
	inc := float64(time.Since(start).Nanoseconds()) / edits

	rebuild := func() {
		r := graph.New(g.NumNodes(), g.NumLiveEdges())
		for i := 0; i < g.NumNodes(); i++ {
			r.AddNode(g.Node(graph.NodeID(i)).Pt)
		}
		g.ForEachEdge(func(e *graph.Edge) { r.AddEdge(e.U, e.V, e.W) })
	}
	const colds = 32
	start = time.Now()
	for i := 0; i < colds; i++ {
		rebuild()
	}
	cold := float64(time.Since(start).Nanoseconds()) / colds
	return TopoMicroResult{
		Edges: g.NumEdges(), ColdNs: cold, IncrementalNs: inc, Speedup: cold / inc,
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(exps []Experiment, id string) *Experiment {
	for i := range exps {
		if exps[i].ID == id {
			return &exps[i]
		}
	}
	return nil
}

// Cell runs one engine at one point and returns the measured value in the
// experiment's metric: seconds/ts for CPU, KBytes for Mem. The point's
// Workers setting is threaded into the engine constructor.
func Cell(e *Experiment, p Point, engine string) float64 {
	o := core.Options{Workers: p.Cfg.Workers}
	res := workload.Run(p.Cfg, EngineWith(engine, o))
	if e.Metric == Mem {
		return float64(res.AvgSizeBytes) / 1024.0
	}
	return res.AvgStepSeconds
}
