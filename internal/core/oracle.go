package core

import (
	"math"
	"sort"

	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// BruteForceKNN computes the k nearest objects to pos by running an
// unbounded Dijkstra over the whole graph and scanning every object. It is
// deliberately implemented on top of graph.Dijkstra — an independent code
// path from the monitoring engines — and serves as the correctness oracle
// for tests and as a reference snapshot-query implementation.
func BruteForceKNN(net *roadnet.Network, pos roadnet.Position, k int) []Neighbor {
	g := net.G
	e := g.Edge(pos.Edge)
	dist, _ := g.Dijkstra(
		[]graph.NodeID{e.U, e.V},
		[]float64{roadnet.CostFromU(e, pos.Frac), roadnet.CostFromV(e, pos.Frac)},
		math.Inf(1),
	)
	var out []Neighbor
	net.ForEachObject(func(id roadnet.ObjectID, op roadnet.Position) {
		oe := g.Edge(op.Edge)
		d := math.Inf(1)
		if du := dist[oe.U]; !math.IsInf(du, 1) {
			d = du + roadnet.CostFromU(oe, op.Frac)
		}
		if dv := dist[oe.V]; !math.IsInf(dv, 1) {
			if alt := dv + roadnet.CostFromV(oe, op.Frac); alt < d {
				d = alt
			}
		}
		if op.Edge == pos.Edge {
			if direct := roadnet.ArcCost(oe, op.Frac, pos.Frac); direct < d {
				d = direct
			}
		}
		if !math.IsInf(d, 1) {
			out = append(out, Neighbor{Obj: id, Dist: d})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Obj < out[j].Obj
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
