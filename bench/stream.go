package main

import (
	"hash/crc32"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
	"roadknn/internal/serve"
	"roadknn/internal/workload"
)

// passThrough is the generator-side core.Engine: workload.Runner reads
// object positions and edge weights back from its network while it
// generates, so every batch must be applied to that network before the
// next one is drawn. It does nothing else, which keeps the generator free
// of any monitoring work and makes its Step the cost floor every real
// engine pays (roadnet.apply_ms_p50).
type passThrough struct {
	net  *roadnet.Network
	qpos []roadnet.Position // index = query id, as registered
}

func (p *passThrough) Name() string              { return "PASS" }
func (p *passThrough) Network() *roadnet.Network { return p.net }
func (p *passThrough) Register(id core.QueryID, pos roadnet.Position, k int) {
	for int(id) >= len(p.qpos) {
		p.qpos = append(p.qpos, roadnet.Position{})
	}
	p.qpos[id] = pos
}
func (p *passThrough) Unregister(core.QueryID) {}
func (p *passThrough) Step(u core.Updates) {
	for _, e := range u.Edges {
		p.net.G.SetWeight(e.Edge, e.NewW)
	}
	for _, o := range u.Objects {
		p.net.MoveObject(o.ID, o.New)
	}
}
func (p *passThrough) Result(core.QueryID) []core.Neighbor { return nil }
func (p *passThrough) Snapshot() *core.Snapshot            { return nil }
func (p *passThrough) Queries() []core.QueryID             { return nil }
func (p *passThrough) Close()                              {}
func (p *passThrough) SizeBytes() int                      { return 0 }

// population is the state a system under test is loaded with: every
// object's and query's position, plus the edge weights when they differ
// from the generated network's (the end-of-stream population a cold
// restart reloads).
type population struct {
	objects []roadnet.Position // index = object id
	queries []roadnet.Position // index = query id
	k       int
	weights []float64 // index = edge id; nil = the network's own
}

// asUpdates renders the population as one insert-only batch, the form the
// service front door and the staged pipeline load it in.
func (p *population) asUpdates() core.Updates {
	var u core.Updates
	for e, w := range p.weights {
		u.Edges = append(u.Edges, core.EdgeUpdate{Edge: graph.EdgeID(e), NewW: w})
	}
	u.Objects = make([]core.ObjectUpdate, len(p.objects))
	for i, pos := range p.objects {
		u.Objects[i] = core.ObjectUpdate{ID: roadnet.ObjectID(i), New: pos, Insert: true}
	}
	u.Queries = make([]core.QueryUpdate, len(p.queries))
	for i, pos := range p.queries {
		u.Queries[i] = core.QueryUpdate{ID: core.QueryID(i), New: pos, K: p.k, Insert: true}
	}
	return u
}

// stream is everything the benchmark feeds a system under test, generated
// from the seed before that system exists.
type stream struct {
	cfg     workload.Config
	initial population
	final   population
	ticks   []core.Updates // warm-up ticks first, then the measured ones
	reports []int          // reports per tick
	// digest is the CRC-32 of the initial population and every tick in the
	// binary wire encoding, concatenated: two result files are comparable
	// only when their digests match.
	digest     uint32
	genSeconds float64
	applyMs    []float64 // per tick: passThrough.Step, the bare-network floor
}

func countReports(u core.Updates) int {
	return len(u.Topology) + len(u.Objects) + len(u.Queries) + len(u.Edges)
}

// generate draws nTicks batches with workload.Runner.GenerateStep, the
// generator behind the paper-figure sweeps.
func generate(cfg workload.Config, nTicks int) (*stream, error) {
	start := time.Now()
	var pt *passThrough
	r, _ := workload.NewRunner(cfg, func(net *roadnet.Network) core.Engine {
		pt = &passThrough{net: net}
		return pt
	})
	s := &stream{cfg: cfg, initial: snapshotPopulation(pt, cfg, false)}
	crc := crc32.NewIEEE()
	digest := func(u core.Updates) error {
		b, err := serve.EncodeUpdates("binary", u)
		if err != nil {
			return err
		}
		crc.Write(b)
		return nil
	}
	if err := digest(s.initial.asUpdates()); err != nil {
		return nil, err
	}
	qpos := append([]roadnet.Position(nil), pt.qpos...)
	s.ticks = make([]core.Updates, nTicks)
	s.reports = make([]int, nTicks)
	s.applyMs = make([]float64, nTicks)
	for i := range s.ticks {
		u := r.GenerateStep()
		t0 := time.Now()
		pt.Step(u)
		s.applyMs[i] = ms(time.Since(t0))
		for _, q := range u.Queries {
			qpos[q.ID] = q.New
		}
		if err := digest(u); err != nil {
			return nil, err
		}
		s.ticks[i], s.reports[i] = u, countReports(u)
	}
	pt.qpos = qpos
	s.final = snapshotPopulation(pt, cfg, true)
	s.digest = crc.Sum32()
	s.genSeconds = time.Since(start).Seconds()
	return s, nil
}

func snapshotPopulation(pt *passThrough, cfg workload.Config, withWeights bool) population {
	p := population{
		objects: make([]roadnet.Position, cfg.NumObjects),
		queries: append([]roadnet.Position(nil), pt.qpos...),
		k:       cfg.K,
	}
	for i := range p.objects {
		p.objects[i], _ = pt.net.ObjectPos(roadnet.ObjectID(i))
	}
	if withWeights {
		g := pt.net.G
		p.weights = make([]float64, g.NumEdges())
		for e := range p.weights {
			p.weights[e] = g.Edge(graph.EdgeID(e)).W
		}
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
