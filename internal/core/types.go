// Package core implements the paper's monitoring algorithms: the overhaul
// baseline OVH (recompute every query from scratch each timestamp), the
// incremental monitoring algorithm IMA (§4) and the group monitoring
// algorithm GMA (§5). IMA and GMA are the two fixed placements of one
// engine, Incremental, in which each query is monitored either directly
// (its own expansion tree) or grouped (through its sequence's monitored
// endpoint nodes); the adaptive planner (internal/planner) places queries
// in that same engine per spatial group. OVH is the paper's baseline and
// deliberately shares none of the incremental machinery. All are exposed
// behind the Engine interface so that the experiment harness and the
// correctness tests can drive them interchangeably.
package core

import (
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// QueryID identifies a continuous k-NN query.
type QueryID int32

// Neighbor is one entry of a query result: an object and its network
// distance from the query.
type Neighbor struct {
	Obj  roadnet.ObjectID
	Dist float64
}

// ObjectUpdate reports an object location change. The paper's protocol
// sends the object id with both its old and new coordinates, but the
// server's object table (the network's registry) already knows the old
// one, so an update carries the new position only: every engine takes the
// departure from the table. Insert marks an object appearing in the
// system; Delete marks one disappearing (New ignored).
type ObjectUpdate struct {
	ID     roadnet.ObjectID
	New    roadnet.Position
	Insert bool
	Delete bool
}

// QueryUpdate reports a query location change. Insert registers a new
// query with the given K; Delete terminates it.
type QueryUpdate struct {
	ID     QueryID
	New    roadnet.Position
	K      int // used on Insert
	Insert bool
	Delete bool
}

// EdgeUpdate reports an edge weight change (e.g. from traffic sensors).
// Multiple updates for one edge within a timestamp must be pre-aggregated
// into a single one (paper §4.5); Engines enforce this.
type EdgeUpdate struct {
	Edge graph.EdgeID
	NewW float64
}

// TopologyOp discriminates live network edits.
type TopologyOp uint8

const (
	// TopoAdd inserts a new edge between two existing nodes.
	TopoAdd TopologyOp = iota
	// TopoRemove tombstones an existing edge.
	TopoRemove
)

// TopologyUpdate reports a live network edit (road opened or closed). Edits
// are applied in batch order, before every other update kind of the
// timestamp. Removing an edge re-snaps its resident objects — and any query
// positioned on it — onto the nearest live edge (deterministically: the
// spatial index tie-breaks on edge id).
//
// Edge ids are assigned deterministically (the most recently tombstoned id
// is reused first), so a replayed sequence of edits reproduces the exact id
// assignment of the original run. On TopoAdd, Edge optionally records the
// id the insertion is expected to receive — engines panic on a mismatch,
// turning replay divergence into a loud failure — or graph.NoEdge to skip
// the check.
type TopologyUpdate struct {
	Op   TopologyOp
	Edge graph.EdgeID // Remove: the edge to drop; Add: expected id or graph.NoEdge
	U, V graph.NodeID // Add: the endpoints (existing nodes)
	W    float64      // Add: the initial travel cost
}

// Updates is the batch of events arriving at one timestamp.
//
// Within Queries the order of entries does not decide who wins (§4.5): every
// engine terminates before any other update and installs after all of them.
// A batch that both installs and terminates an id therefore drops the id's
// old registration, if any, and leaves the new one registered; a move of an
// id the batch installs or terminates is ignored.
type Updates struct {
	Topology []TopologyUpdate
	Objects  []ObjectUpdate
	Queries  []QueryUpdate
	Edges    []EdgeUpdate
}

// Engine is a continuous k-NN monitoring algorithm. Implementations own
// their roadnet.Network (including object registry and edge weights) and
// mutate it as updates are processed; callers must route all mutations
// through the engine.
type Engine interface {
	// Name returns the algorithm's short name (OVH, IMA, GMA, AUTO).
	Name() string
	// Network returns the engine's underlying network model.
	Network() *roadnet.Network
	// Register installs a new continuous query and computes its initial
	// result. It panics on duplicate ids or non-positive k.
	Register(id QueryID, pos roadnet.Position, k int)
	// Unregister terminates a query.
	Unregister(id QueryID)
	// Step applies one timestamp's updates and refreshes all results.
	Step(u Updates)
	// Result returns the current k-NN set of a query, sorted by ascending
	// distance (ties by object id). The returned slice must not be
	// modified. Without serving (Options.Serving false) it is valid until
	// the next Step call and must not be called concurrently with Step;
	// on a serving engine it reads the latest published snapshot —
	// lock-free, safe from any goroutine, immutable and valid forever.
	Result(id QueryID) []Neighbor
	// Snapshot returns the latest published snapshot: every registered
	// query's result at one consistent timestamp, versioned by a
	// publication epoch. It returns nil unless the engine was built with
	// Options{Serving: true}; on a serving engine it is a lock-free
	// atomic load, safe concurrently with Step and never blocking it.
	Snapshot() *Snapshot
	// Queries returns the ids of the registered queries, ascending. Like
	// Step, it must not race Step; concurrent readers should enumerate
	// queries through Snapshot instead.
	Queries() []QueryID
	// Close releases the engine's persistent worker pool. It does not
	// invalidate published snapshots, but no Step/Register call may be in
	// flight or follow. Engines abandoned without Close release the pool
	// when garbage collected.
	Close()
	// SizeBytes estimates the memory footprint of the engine's private
	// bookkeeping structures (expansion trees, influence lists, result
	// sets), reproducing the measurements of Figure 18.
	SizeBytes() int
}

// ClockRestorer is the optional engine interface used by crash recovery
// (internal/wal, internal/serve): after rebuilding an engine's state from a
// checkpoint, RestoreClock re-seeds the publication epoch and step
// timestamp so the recovered engine continues the pre-crash sequence. All
// engines in this package implement it. Like Step, it must only be called
// from the engine's single mutator goroutine.
type ClockRestorer interface {
	RestoreClock(epoch, stamp uint64)
}

// Rebuilder is the optional engine interface that times a from-scratch
// pass: Rebuild discards all incrementally maintained per-query state and
// recomputes it at the current object positions and edge weights, then
// publishes a fresh snapshot with the same rows — path costs are exact
// (graph.Quantum), so a live engine already equals a rebuilt one and
// nothing in the serving stack calls it. It is kept for the benchmark's
// core.rebuild_ms, which type-asserts it. All engines in this package
// implement it. Like Step, it must only be called from the engine's single
// mutator goroutine.
type Rebuilder interface {
	Rebuild()
}
