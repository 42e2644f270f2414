package main

import (
	"math"
	"time"

	"roadknn/internal/gen"
	"roadknn/internal/workload"
)

// spec is one named benchmark workload. The names are fixed: later issues
// cite them together with a metric. BENCHMARK.json says why each was
// chosen.
type spec struct {
	name string
	// cfg is the traffic (Seed filled in per run).
	cfg     workload.Config
	engine  string // experiments.EngineWith name
	workers int
	service bool // through serve.Server over loopback HTTP, else library calls
	// period > 0 makes the loop open: tick i is due at i*period whatever
	// the system does. 0 is a closed loop.
	period time.Duration
	// encoding and bodyReports shape the POST /v1/updates bodies of a
	// service workload: bodyReports 0 sends a tick as one body.
	encoding    string
	bodyReports int
	// follower adds a synchronous cluster.Follower to the traced pass.
	follower bool
	warmup   int
	// ticksPerSecond turns -seconds into a measured tick count, so that a
	// run does identical work on every machine and commit; it is about the
	// rate this workload ticked at on the 2-core reference box at the commit
	// that defined the benchmark (an open loop's is 1/period). tickMultiple
	// keeps the count a multiple of the planner's re-plan cadence.
	ticksPerSecond float64
	tickMultiple   int
}

const (
	// minTicks keeps at least 16 samples beyond p90.
	minTicks = 160
	// tracedTicks is the floor of the traced pass, which measures half as
	// many ticks as the end-to-end pass: its numbers carry no bound.
	tracedTicks = 80
)

func (s *spec) measuredTicks(seconds int, trace bool) int {
	n := max(minTicks, int(math.Round(float64(seconds)*s.ticksPerSecond)))
	if trace {
		n = max(tracedTicks, n/2)
	}
	if m := s.tickMultiple; m > 1 {
		n = (n + m - 1) / m * m
	}
	if s.service {
		n = serviceTicks(s, n)
	}
	return n
}

func paperDefault() workload.Config { return workload.Default() }

func hotspot() workload.Config {
	// The "pl" sweep's 60% point (internal/experiments) at a quarter of the
	// paper's size: the sparse base stays, the hotspot adds queries and
	// object churn.
	const h = 0.6
	c := workload.Default().Scale(0.25)
	c.QryDist = gen.Uniform
	c.NumQueries = int(float64(c.NumQueries) / (1 - h))
	c.ObjAgility = 0.1 + 0.33*h
	c.HotspotFrac = h
	c.HotspotRadius = 0.08
	c.HotspotDrift = 0.005
	return c
}

func ingestHeavy() workload.Config {
	c := workload.Default()
	c.ObjAgility = 0.15
	c.NumQueries = 500
	c.K = 10
	return c
}

var specs = []*spec{
	{
		name: "paper_default",
		cfg:  paperDefault(), engine: "IMA", workers: 1,
		warmup: 20, ticksPerSecond: 8,
	},
	{
		name: "hotspot_auto",
		cfg:  hotspot(), engine: "AUTO", workers: 2,
		warmup: 24, ticksPerSecond: 10, tickMultiple: 8,
	},
	{
		name: "serve_durable",
		// Half size, because an open loop needs headroom: a tick costs the
		// service ~90 ms here, so a 200 ms period is ~45% utilisation and a
		// box a third slower still keeps up. At full size that period would
		// be 400 ms and 160 ticks would not fit the benchmark's time cap.
		cfg: paperDefault().Scale(0.5), engine: "IMA", workers: 1, service: true,
		period: 200 * time.Millisecond, encoding: "binary", follower: true,
		warmup: 29, ticksPerSecond: 5,
	},
	{
		name: "ingest_heavy",
		cfg:  ingestHeavy(), engine: "IMA", workers: 1, service: true,
		encoding: "json", bodyReports: 1024,
		warmup: 29, ticksPerSecond: 11,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}
