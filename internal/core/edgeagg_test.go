package core

import (
	"slices"
	"testing"

	"roadknn/internal/graph"
)

// TestEdgeAggregationLastWinsAndDropsNoOps: within one step the last report
// per edge wins, an edge whose last report equals its weight is dropped
// (even after reports that differed), decreases precede increases and each
// run is ascending by edge id. An edge added earlier in the same batch —
// beyond the id space of the previous step's aggregation — aggregates like
// any other, and a new step forgets the previous one's reports.
func TestEdgeAggregationLastWinsAndDropsNoOps(t *testing.T) {
	net := ladderNet() // unit weights, edges 0-9
	s := newMonitorSet(net, nil)
	s.epoch++
	if got := s.classifyEdgeUpdates([]EdgeUpdate{{Edge: 3, NewW: 2}}); len(got) != 1 {
		t.Fatalf("first step classified %v", got)
	}

	added := net.AddEdge(0, 5, 4) // what applyTopology does before routing
	if added != 10 {
		t.Fatalf("added edge got id %d, want 10", added)
	}
	s.epoch++
	got := s.classifyEdgeUpdates([]EdgeUpdate{
		{Edge: added, NewW: 1},
		{Edge: 7, NewW: 3},
		{Edge: 2, NewW: 9},
		{Edge: 7, NewW: 0.5}, // last wins: a decrease
		{Edge: 2, NewW: 1},   // back to its weight: a no-op, dropped
		{Edge: added, NewW: 6},
		{Edge: added, NewW: 5}, // last wins: an increase on the new edge
		{Edge: 4, NewW: 1},     // a no-op from the start
		{Edge: 1, NewW: 0.25},
		{Edge: 3, NewW: 2}, // reported last step too; still unapplied, so a change
	})
	want := []edgeChange{
		{eid: 1, oldW: 1, newW: 0.25, decrease: true},
		{eid: 7, oldW: 1, newW: 0.5, decrease: true},
		{eid: 3, oldW: 1, newW: 2},
		{eid: added, oldW: 4, newW: 5},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("classified %+v\nwant %+v", got, want)
	}

	s.epoch++
	if got := s.classifyEdgeUpdates([]EdgeUpdate{{Edge: added, NewW: 4}, {Edge: graph.EdgeID(9), NewW: 1}}); len(got) != 0 {
		t.Fatalf("a fresh step of no-op reports classified %+v", got)
	}
}
