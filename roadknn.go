// Package roadknn is a library for continuous k-nearest-neighbor monitoring
// in road networks, implementing the algorithms of Mouratidis, Yiu,
// Papadias and Mamoulis, "Continuous Nearest Neighbor Monitoring in Road
// Networks", VLDB 2006.
//
// A central server tracks a set of data objects (e.g. pedestrians) and a
// set of continuous k-NN queries (e.g. vacant taxis) that both move
// arbitrarily on a road network whose edge weights fluctuate with traffic.
// Each timestamp the server receives a batch of object-location, query-
// location and edge-weight updates and refreshes every query's k nearest
// objects under shortest-path distance.
//
// Four monitoring engines are provided behind the Engine interface:
//
//   - NewOVH: the overhaul baseline — recompute every query from scratch
//     each timestamp;
//   - NewIMA: the incremental monitoring algorithm — per-query expansion
//     trees and influence lists, so only relevant updates are processed and
//     valid tree parts are reused (paper §4);
//   - NewGMA: the group monitoring algorithm — shared execution per network
//     sequence using monitored intersection nodes (paper §5);
//   - NewAuto: the adaptive engine ("AUTO") — IMA and GMA as two modes of
//     one core, each spatial group of queries monitored in whichever mode
//     the paper's §6 crossover predicts is cheaper.
//
// # Quick start
//
//	net := roadknn.GenerateNetwork(1000, 42) // or build one via NetworkBuilder
//	net.AddObject(1, roadknn.Position{Edge: 0, Frac: 0.5})
//	srv := roadknn.NewGMA(net)
//	srv.Register(1, roadknn.Position{Edge: 3, Frac: 0.2}, 4)
//	for eachTimestamp {
//	    srv.Step(roadknn.Updates{Objects: ..., Queries: ..., Edges: ...})
//	    nns := srv.Result(1)
//	}
//
// All engines own their Network: apply updates only through Step (or
// Register/Unregister), never by mutating the network directly while a
// monitor is live. Engines assume bidirectional edges, the paper's setting.
//
// # Concurrent serving
//
// Engines built with Options{Serving: true} publish an immutable,
// epoch-versioned Snapshot of all query results after every Step — an
// atomic pointer flip — so any number of reader goroutines can call
// Result and Snapshot while the pipeline steps, without locks and without
// ever blocking a Step. Engines with Workers > 1 process per-query work
// on a persistent worker pool started once per engine; call Close (or let
// the engine be garbage collected) to release it. The internal/serve
// package and cmd/monitor's -serve mode expose this runtime over
// HTTP/JSON with batched update ingestion.
package roadknn

import (
	"roadknn/internal/core"
	"roadknn/internal/gen"
	"roadknn/internal/geom"
	"roadknn/internal/graph"
	"roadknn/internal/planner"
	"roadknn/internal/roadnet"
)

// Re-exported identifier and value types.
type (
	// NodeID identifies a network node.
	NodeID = graph.NodeID
	// EdgeID identifies a network edge.
	EdgeID = graph.EdgeID
	// ObjectID identifies a data object.
	ObjectID = roadnet.ObjectID
	// QueryID identifies a continuous query.
	QueryID = core.QueryID
	// Point is a workspace coordinate.
	Point = geom.Point
	// Position locates a point on the network (edge + fraction from its U
	// endpoint).
	Position = roadnet.Position
	// Network is the runtime road-network model: graph, spatial index and
	// object registry.
	Network = roadnet.Network
	// Neighbor is one result entry: object and network distance.
	Neighbor = core.Neighbor
	// Engine is a continuous k-NN monitoring algorithm.
	Engine = core.Engine
	// Snapshot is an immutable, epoch-versioned view of every registered
	// query's result at one consistent timestamp, published by engines
	// built with Options{Serving: true} and read lock-free via
	// Engine.Snapshot concurrently with Step.
	Snapshot = core.Snapshot
	// Delta describes how one published Snapshot differs from its
	// predecessor: which queries' results changed and how. Engines built
	// with Options{Deltas: true} attach one to every published Snapshot
	// (Snapshot.Delta); Delta.Apply reconstructs the next snapshot
	// bit-exactly from the previous one, the basis of churn-proportional
	// delta streaming in internal/serve.
	Delta = core.Delta
	// QueryDelta is one query's change within a Delta.
	QueryDelta = core.QueryDelta
	// Updates is a timestamp's batch of events.
	Updates = core.Updates
	// ObjectUpdate reports an object movement, appearance or disappearance.
	ObjectUpdate = core.ObjectUpdate
	// QueryUpdate reports a query movement, installation or termination.
	QueryUpdate = core.QueryUpdate
	// EdgeUpdate reports an edge weight change.
	EdgeUpdate = core.EdgeUpdate
	// TopologyUpdate reports a live network edit: an edge insertion or
	// removal applied at the next Step, before any other update kind.
	TopologyUpdate = core.TopologyUpdate
	// TopologyOp selects the kind of a TopologyUpdate.
	TopologyOp = core.TopologyOp
	// Options configures engine construction. The zero value selects the
	// defaults (worker pool sized to runtime.GOMAXPROCS).
	Options = core.Options
	// PlannerOptions configures the adaptive AUTO engine (Options.Planner):
	// its re-plan cadence.
	PlannerOptions = core.PlannerOptions
	// PlannerStats is the adaptive engine's self-description: group count,
	// per-mode placements, cumulative migrations and the cost model's
	// latest per-group estimates. Retrieved via the planner.StatsProvider
	// interface (engines returned by NewAuto implement it) and served under
	// /v1/stats by internal/serve.
	PlannerStats = planner.Stats
)

// Topology update operations and sentinels.
const (
	// TopoAdd inserts an edge between two existing nodes.
	TopoAdd = core.TopoAdd
	// TopoRemove deletes an edge; resident objects and stranded queries
	// re-snap onto the nearest live edge.
	TopoRemove = core.TopoRemove
)

// NoEdge is the sentinel edge id carried by a TopoAdd whose assigned id is
// not known in advance (engines assign deterministically and skip the
// cross-check).
const NoEdge = graph.NoEdge

// NewOVH returns the overhaul baseline engine over net with default
// options.
func NewOVH(net *Network) Engine { return core.NewOVH(net) }

// NewIMA returns the incremental monitoring algorithm engine over net with
// default options.
func NewIMA(net *Network) Engine { return core.NewIMA(net) }

// NewGMA returns the group monitoring algorithm engine over net with
// default options.
func NewGMA(net *Network) Engine { return core.NewGMA(net) }

// NewOVHWith returns the overhaul baseline engine configured by opts.
func NewOVHWith(net *Network, opts Options) Engine { return core.NewOVHWith(net, opts) }

// NewIMAWith returns the incremental monitoring algorithm engine configured
// by opts.
func NewIMAWith(net *Network, opts Options) Engine { return core.NewIMAWith(net, opts) }

// NewGMAWith returns the group monitoring algorithm engine configured by
// opts. Every engine processes each timestamp's per-query work on a worker
// pool of Options.Workers goroutines (serial when 1), producing results
// identical to serial execution.
func NewGMAWith(net *Network, opts Options) Engine { return core.NewGMAWith(net, opts) }

// NewAuto returns the adaptive engine ("AUTO") over net with default
// options: the one monitoring core of IMA and GMA, with queries partitioned
// into spatial groups and each group monitored online in whichever of the
// two modes the paper's §6 crossover predicts is cheaper.
// Placement decisions are a deterministic function of the replayed update
// stream, so crash recovery and follower replication stay byte-identical
// under AUTO exactly as under a static engine.
func NewAuto(net *Network) Engine { return planner.New(net) }

// NewAutoWith returns the adaptive engine configured by opts; see
// Options.Planner for the re-plan cadence.
func NewAutoWith(net *Network, opts Options) Engine { return planner.NewWith(net, opts) }

// GenerateNetwork produces a synthetic road network with approximately the
// given number of edges (San-Francisco-like statistics: planar, degree 3-4
// intersections, degree-2 chains; weight = segment length). The same seed
// always yields the same network.
func GenerateNetwork(edges int, seed int64) *Network {
	return roadnet.NewNetwork(gen.SanFranciscoLike(edges, seed))
}

// SnapshotKNN answers a one-time k-NN query at pos by exhaustive search —
// useful for verification and for callers that do not need continuous
// monitoring.
func SnapshotKNN(net *Network, pos Position, k int) []Neighbor {
	return core.BruteForceKNN(net, pos, k)
}

// NetworkBuilder assembles a road network node by node and edge by edge.
type NetworkBuilder struct {
	g *graph.Graph
}

// NewNetworkBuilder returns an empty builder.
func NewNetworkBuilder() *NetworkBuilder {
	return &NetworkBuilder{g: graph.New(64, 64)}
}

// AddNode places a node at (x, y) and returns its id.
func (b *NetworkBuilder) AddNode(x, y float64) NodeID {
	return b.g.AddNode(Point{X: x, Y: y})
}

// AddEdge links u and v with a bidirectional edge of the given travel cost
// and returns its id.
func (b *NetworkBuilder) AddEdge(u, v NodeID, weight float64) EdgeID {
	return b.g.AddEdge(u, v, weight)
}

// Build finalizes the network (constructing the spatial index). The
// builder must not be reused afterwards.
func (b *NetworkBuilder) Build() *Network {
	return roadnet.NewNetwork(b.g)
}
