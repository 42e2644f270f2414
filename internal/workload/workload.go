// Package workload implements the paper's experimental methodology (§6,
// Table 2): synthetic networks with N objects and Q continuous queries,
// per-timestamp update batches driven by object/query/edge agilities and
// speeds, and CPU-time / memory measurements per timestamp.
package workload

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/gen"
	"roadknn/internal/geom"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// Movement selects how objects and queries move.
type Movement int

const (
	// RandomWalk is the paper's simple generator: a moving entity performs
	// a random walk covering speed × average-edge-length per timestamp.
	RandomWalk Movement = iota
	// Brinkhoff uses the network-based generator of [2]: movers follow
	// shortest paths to random destinations in three speed classes
	// (Figure 19's setup).
	Brinkhoff
)

// Config mirrors Table 2.
type Config struct {
	Edges       int   // network size in edges (default sub-network: 10K)
	Seed        int64 // drives network and all randomness
	NumObjects  int   // N
	NumQueries  int   // Q
	ObjDist     gen.Distribution
	QryDist     gen.Distribution
	ObjSigma    float64 // Gaussian sigma fraction for objects (paper: 50%)
	QrySigma    float64 // Gaussian sigma fraction for queries (paper: 10%)
	K           int     // NNs per query
	EdgeAgility float64 // f_edg: fraction of edges updated per ts (+-10%)
	// TopoAgility is f_top: the fraction of the edge space structurally
	// edited per timestamp, alternating removals of random live edges with
	// insertions between random node pairs (removed ids return through the
	// freelist, so the edge space stays roughly constant). At least one
	// edit per timestamp when > 0. RandomWalk movement only: the Brinkhoff
	// simulators precompute routes over a fixed network.
	TopoAgility float64
	ObjAgility  float64 // f_obj: fraction of objects moving per ts
	ObjSpeed    float64 // v_obj: distance per move, in avg edge lengths
	QryAgility  float64 // f_qry
	QrySpeed    float64 // v_qry
	// HotspotFrac places that fraction of the queries in one dense agile
	// cluster (a Gaussian blob, HotspotRadius wide) while the rest follow
	// QryDist — the mixed-density workload of the adaptive-planner sweep:
	// the cluster is GMA territory, the sparse remainder IMA territory.
	// Hotspot queries re-snap around the cluster center every timestamp.
	// RandomWalk movement only.
	HotspotFrac float64
	// HotspotDrift moves the cluster center that fraction of the workspace
	// diagonal per timestamp (bouncing at the bounds), dragging the dense
	// group across spatial cells so the planner must migrate it between
	// engines mid-run. 0 keeps the cluster stationary.
	HotspotDrift float64
	// HotspotRadius is the cluster's Gaussian sigma as a fraction of the
	// workspace diagonal; 0 means the default 0.02.
	HotspotRadius float64
	Timestamps    int
	Movement      Movement
	Oldenburg     bool // use the Oldenburg-like network (Figure 19)
	// Workers is the engine worker-pool size for the run (0 = GOMAXPROCS,
	// 1 = serial); it parameterizes the scalability sweeps.
	Workers int
}

// Default returns the paper's default setting (Table 2).
func Default() Config {
	return Config{
		Edges:       10000,
		Seed:        1,
		NumObjects:  100000,
		NumQueries:  5000,
		ObjDist:     gen.Uniform,
		QryDist:     gen.Gaussian,
		ObjSigma:    0.5,
		QrySigma:    0.1,
		K:           50,
		EdgeAgility: 0.04,
		ObjAgility:  0.10,
		ObjSpeed:    1,
		QryAgility:  0.10,
		QrySpeed:    1,
		Timestamps:  100,
	}
}

// Scale shrinks the workload by the given factor (network, objects and
// queries together), preserving densities so result shapes carry over.
func (c Config) Scale(f float64) Config {
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	c.Edges = scale(c.Edges)
	c.NumObjects = scale(c.NumObjects)
	c.NumQueries = scale(c.NumQueries)
	return c
}

// Result aggregates a run's measurements.
type Result struct {
	Engine         string
	Timestamps     int
	TotalSeconds   float64 // total Step time
	AvgStepSeconds float64 // mean Step time per timestamp
	AvgSizeBytes   int     // mean SizeBytes sampled after each Step
	MaxSizeBytes   int
	InitialSeconds float64 // initial result computation for all queries
	// AvgStepAllocs / AvgStepBytes are the mean heap allocations (count and
	// bytes) performed inside Step per timestamp, measured with
	// runtime.ReadMemStats outside the timed region; workload generation is
	// excluded.
	AvgStepAllocs float64
	AvgStepBytes  float64
}

// BuildNetwork constructs the configured network.
func BuildNetwork(cfg Config) *roadnet.Network {
	var g *graph.Graph
	if cfg.Oldenburg {
		g = gen.OldenburgLike(cfg.Seed)
	} else {
		g = gen.SanFranciscoLike(cfg.Edges, cfg.Seed)
	}
	return roadnet.NewNetwork(g)
}

// Runner drives one engine through the configured simulation. Create one
// per engine with the same Config to compare algorithms on identical
// update streams (all randomness derives from cfg.Seed).
type Runner struct {
	cfg    Config
	rng    *rand.Rand
	engine core.Engine
	net    *roadnet.Network
	qPos   []roadnet.Position
	avgLen float64

	objSim *gen.Brinkhoff // Brinkhoff movement only
	qrySim *gen.Brinkhoff

	// Hotspot cluster state (Config.HotspotFrac > 0): queries [0, hotN)
	// re-snap around the drifting center every timestamp.
	hotN      int
	hotCenter geom.Point
	hotDir    geom.Point // unit drift direction, reflected at the bounds
	hotRadius float64
	hotDrift  float64 // center travel per timestamp, workspace units
}

// NewRunner builds the network, places objects and queries, and registers
// the queries on the engine produced by makeEngine.
func NewRunner(cfg Config, makeEngine func(*roadnet.Network) core.Engine) (*Runner, Result) {
	rng := rand.New(rand.NewSource(cfg.Seed + 7_000_003))
	net := BuildNetwork(cfg)
	r := &Runner{
		cfg:    cfg,
		rng:    rng,
		net:    net,
		engine: makeEngine(net),
		avgLen: net.AvgEdgeLength(),
	}

	if cfg.Movement == Brinkhoff {
		r.objSim = gen.NewBrinkhoff(net, cfg.NumObjects, cfg.Seed+11)
		for i := 0; i < cfg.NumObjects; i++ {
			net.AddObject(roadnet.ObjectID(i), r.objSim.Position(i))
		}
		r.qrySim = gen.NewBrinkhoff(net, cfg.NumQueries, cfg.Seed+13)
		r.qPos = make([]roadnet.Position, cfg.NumQueries)
		for i := range r.qPos {
			r.qPos[i] = r.qrySim.Position(i)
		}
	} else {
		for i, pos := range gen.Place(net, cfg.NumObjects, cfg.ObjDist, cfg.ObjSigma, rng) {
			net.AddObject(roadnet.ObjectID(i), pos)
		}
		r.qPos = gen.Place(net, cfg.NumQueries, cfg.QryDist, cfg.QrySigma, rng)
		if cfg.HotspotFrac > 0 {
			b := net.SI.Bounds()
			diag := math.Hypot(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y)
			r.hotN = int(cfg.HotspotFrac * float64(cfg.NumQueries))
			r.hotRadius = 0.02 * diag
			if cfg.HotspotRadius > 0 {
				r.hotRadius = cfg.HotspotRadius * diag
			}
			r.hotDrift = cfg.HotspotDrift * diag
			r.hotCenter = geom.Point{
				X: b.Min.X + (0.25+0.5*rng.Float64())*(b.Max.X-b.Min.X),
				Y: b.Min.Y + (0.25+0.5*rng.Float64())*(b.Max.Y-b.Min.Y),
			}
			ang := 2 * math.Pi * rng.Float64()
			r.hotDir = geom.Point{X: math.Cos(ang), Y: math.Sin(ang)}
			for i := 0; i < r.hotN; i++ {
				if pos, ok := r.hotSnap(); ok {
					r.qPos[i] = pos
				}
			}
		}
	}

	res := Result{Engine: r.engine.Name()}
	start := time.Now()
	for i, pos := range r.qPos {
		r.engine.Register(core.QueryID(i), pos, cfg.K)
	}
	res.InitialSeconds = time.Since(start).Seconds()
	return r, res
}

// Engine returns the driven engine.
func (r *Runner) Engine() core.Engine { return r.engine }

// hotSnap draws one position around the hotspot center.
func (r *Runner) hotSnap() (roadnet.Position, bool) {
	return r.net.Snap(geom.Point{
		X: r.hotCenter.X + r.rng.NormFloat64()*r.hotRadius,
		Y: r.hotCenter.Y + r.rng.NormFloat64()*r.hotRadius,
	})
}

// driftHotspot advances the cluster center one timestamp, reflecting the
// direction at the workspace bounds.
func (r *Runner) driftHotspot() {
	if r.hotDrift <= 0 {
		return
	}
	b := r.net.SI.Bounds()
	r.hotCenter.X += r.hotDir.X * r.hotDrift
	r.hotCenter.Y += r.hotDir.Y * r.hotDrift
	if r.hotCenter.X < b.Min.X {
		r.hotCenter.X, r.hotDir.X = 2*b.Min.X-r.hotCenter.X, -r.hotDir.X
	} else if r.hotCenter.X > b.Max.X {
		r.hotCenter.X, r.hotDir.X = 2*b.Max.X-r.hotCenter.X, -r.hotDir.X
	}
	if r.hotCenter.Y < b.Min.Y {
		r.hotCenter.Y, r.hotDir.Y = 2*b.Min.Y-r.hotCenter.Y, -r.hotDir.Y
	} else if r.hotCenter.Y > b.Max.Y {
		r.hotCenter.Y, r.hotDir.Y = 2*b.Max.Y-r.hotCenter.Y, -r.hotDir.Y
	}
}

// GenerateStep builds the update batch for one timestamp.
func (r *Runner) GenerateStep() core.Updates {
	var u core.Updates
	cfg := r.cfg

	if cfg.Movement == Brinkhoff {
		for _, mv := range r.objSim.Step(cfg.ObjAgility) {
			u.Objects = append(u.Objects, core.ObjectUpdate{
				ID: roadnet.ObjectID(mv.Index), New: mv.New,
			})
		}
		for _, mv := range r.qrySim.Step(cfg.QryAgility) {
			r.qPos[mv.Index] = mv.New
			u.Queries = append(u.Queries, core.QueryUpdate{
				ID: core.QueryID(mv.Index), New: mv.New,
			})
		}
	} else {
		for i := 0; i < cfg.NumObjects; i++ {
			if r.rng.Float64() >= cfg.ObjAgility {
				continue
			}
			id := roadnet.ObjectID(i)
			old, ok := r.net.ObjectPos(id)
			if !ok {
				continue
			}
			np := r.net.RandomWalk(old, cfg.ObjSpeed*r.avgLen, 0, r.rng)
			u.Objects = append(u.Objects, core.ObjectUpdate{ID: id, New: np})
		}
		// Hotspot queries re-snap around the (possibly drifting) cluster
		// center every timestamp, before the agility-gated walkers.
		if r.hotN > 0 {
			r.driftHotspot()
			for i := 0; i < r.hotN; i++ {
				np, ok := r.hotSnap()
				if !ok {
					continue
				}
				r.qPos[i] = np
				u.Queries = append(u.Queries, core.QueryUpdate{ID: core.QueryID(i), New: np})
			}
		}
		for i := r.hotN; i < len(r.qPos); i++ {
			if r.rng.Float64() >= cfg.QryAgility {
				continue
			}
			// Under topology churn the engine may have re-snapped this query
			// off a removed edge; walk from the same re-snapped position.
			if !r.net.G.EdgeAlive(r.qPos[i].Edge) {
				np, ok := r.net.Resnap(r.qPos[i])
				if !ok {
					continue
				}
				r.qPos[i] = np
			}
			np := r.net.RandomWalk(r.qPos[i], cfg.QrySpeed*r.avgLen, 0, r.rng)
			r.qPos[i] = np
			u.Queries = append(u.Queries, core.QueryUpdate{ID: core.QueryID(i), New: np})
		}
	}

	m := r.net.G.NumEdges()
	nUpd := int(cfg.EdgeAgility * float64(m))
	for i := 0; i < nUpd; i++ {
		eid := graph.EdgeID(r.rng.Intn(m))
		if !r.net.G.EdgeAlive(eid) {
			continue // tombstoned id: the batch carries slightly fewer updates
		}
		w := r.net.G.Edge(eid).W
		if r.rng.Intn(2) == 0 {
			w *= 0.9
		} else {
			w *= 1.1
		}
		u.Edges = append(u.Edges, core.EdgeUpdate{Edge: eid, NewW: w})
	}

	// Topology churn last, so the edits can avoid every edge the rest of
	// the batch references: the engine applies topology first, and a move
	// or weight update addressing an edge removed in the same batch would
	// be an invalid stream (the serving front door rejects exactly that).
	if cfg.TopoAgility > 0 {
		if cfg.Movement == Brinkhoff {
			panic("workload: TopoAgility requires RandomWalk movement")
		}
		used := make(map[graph.EdgeID]bool)
		for _, o := range u.Objects {
			old, _ := r.net.ObjectPos(o.ID) // the batch is not applied yet
			used[old.Edge] = true
			used[o.New.Edge] = true
		}
		for _, q := range u.Queries {
			used[q.New.Edge] = true
		}
		for _, e := range u.Edges {
			used[e.Edge] = true
		}
		nTopo := int(cfg.TopoAgility * float64(m))
		if nTopo < 1 {
			nTopo = 1
		}
		removed := 0
		for i := 0; i < nTopo; i++ {
			if i%2 == 0 {
				for tries := 0; tries < 128; tries++ {
					eid := graph.EdgeID(r.rng.Intn(m))
					if used[eid] || !r.net.G.EdgeAlive(eid) ||
						r.net.G.NumLiveEdges()-removed <= 1 {
						continue
					}
					used[eid] = true // no double-removal within the batch
					removed++
					u.Topology = append(u.Topology, core.TopologyUpdate{
						Op: core.TopoRemove, Edge: eid,
					})
					break
				}
			} else {
				nn := r.net.G.NumNodes()
				a := graph.NodeID(r.rng.Intn(nn))
				b := graph.NodeID(r.rng.Intn(nn))
				if a == b {
					b = graph.NodeID((int(b) + 1) % nn)
				}
				u.Topology = append(u.Topology, core.TopologyUpdate{
					Op: core.TopoAdd, Edge: graph.NoEdge,
					U: a, V: b, W: r.avgLen * (0.5 + r.rng.Float64()),
				})
			}
		}
	}
	return u
}

// Run executes the configured number of timestamps and returns the
// aggregated measurements. Allocation counters are sampled around each
// Step (not around workload generation), outside the timed region, so the
// CPU metric is unaffected.
func (r *Runner) Run() Result {
	res := Result{Engine: r.engine.Name(), Timestamps: r.cfg.Timestamps}
	var sizeSum int
	var allocs, allocBytes uint64
	var msBefore, msAfter runtime.MemStats
	for ts := 0; ts < r.cfg.Timestamps; ts++ {
		u := r.GenerateStep()
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		r.engine.Step(u)
		res.TotalSeconds += time.Since(start).Seconds()
		runtime.ReadMemStats(&msAfter)
		allocs += msAfter.Mallocs - msBefore.Mallocs
		allocBytes += msAfter.TotalAlloc - msBefore.TotalAlloc
		sz := r.engine.SizeBytes()
		sizeSum += sz
		if sz > res.MaxSizeBytes {
			res.MaxSizeBytes = sz
		}
	}
	if res.Timestamps > 0 {
		res.AvgStepSeconds = res.TotalSeconds / float64(res.Timestamps)
		res.AvgSizeBytes = sizeSum / res.Timestamps
		res.AvgStepAllocs = float64(allocs) / float64(res.Timestamps)
		res.AvgStepBytes = float64(allocBytes) / float64(res.Timestamps)
	}
	return res
}

// Run builds a runner and executes it; the one-call entry point used by
// the benchmark harness.
func Run(cfg Config, makeEngine func(*roadnet.Network) core.Engine) Result {
	r, init := NewRunner(cfg, makeEngine)
	res := r.Run()
	res.InitialSeconds = init.InitialSeconds
	return res
}
