package core

import (
	"fmt"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// applyTopologyOps applies one timestamp's edge edits to net in batch order,
// cross-checking the deterministic id assignment of insertions, and appends
// to moves the object re-snaps performed by removals, each as a move to its
// new position (in application order; each removal's moves are sorted by
// object id). All three engines funnel their topology phase through this
// helper so the network-level effects — edge set, freelist state, re-snap
// targets — are identical across engines and across replays.
func applyTopologyOps(net *roadnet.Network, topo []TopologyUpdate, moves []ObjectUpdate) []ObjectUpdate {
	for _, op := range topo {
		switch op.Op {
		case TopoRemove:
			for _, mv := range net.RemoveEdge(op.Edge) {
				moves = append(moves, ObjectUpdate{ID: mv.ID, New: mv.New})
			}
		case TopoAdd:
			id := net.AddEdge(op.U, op.V, op.W)
			if op.Edge != graph.NoEdge && id != op.Edge {
				panic(fmt.Sprintf("core: topology insertion assigned edge %d, expected %d", id, op.Edge))
			}
		default:
			panic(fmt.Sprintf("core: unknown topology op %d", op.Op))
		}
	}
	return moves
}
