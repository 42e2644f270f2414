// Quickstart: build a small road network by hand, register a continuous
// 2-NN query, and watch its result change as objects move, the query
// moves, and an edge gets congested.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"roadknn"
)

func main() {
	// A 3x3 grid of intersections, 200m apart, all streets bidirectional.
	//
	//	n6 - n7 - n8
	//	 |    |    |
	//	n3 - n4 - n5
	//	 |    |    |
	//	n0 - n1 - n2
	b := roadknn.NewNetworkBuilder()
	var nodes [9]roadknn.NodeID
	for i := range nodes {
		nodes[i] = b.AddNode(float64(i%3)*200, float64(i/3)*200)
	}
	var streets []roadknn.EdgeID
	addStreet := func(u, v int) roadknn.EdgeID {
		id := b.AddEdge(nodes[u], nodes[v], 200) // weight = travel cost
		streets = append(streets, id)
		return id
	}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			i := y*3 + x
			if x < 2 {
				addStreet(i, i+1)
			}
			if y < 2 {
				addStreet(i, i+3)
			}
		}
	}
	net := b.Build()

	// Two delivery couriers (the data objects).
	courierA, courierB := roadknn.ObjectID(1), roadknn.ObjectID(2)
	net.AddObject(courierA, roadknn.Position{Edge: streets[0], Frac: 0.25})
	net.AddObject(courierB, roadknn.Position{Edge: streets[7], Frac: 0.50})

	// A dispatcher at the center of the map wants the 2 nearest couriers,
	// continuously. GMA shares work between queries; with one query IMA
	// would do equally well.
	srv := roadknn.NewGMA(net)
	dispatcher := roadknn.QueryID(100)
	srv.Register(dispatcher, roadknn.Position{Edge: streets[6], Frac: 0.5}, 2)
	report(srv, dispatcher, "initial result")

	// Timestamp 1: courier A drives two blocks east.
	// An update says where to; the server knows where from.
	srv.Step(roadknn.Updates{Objects: []roadknn.ObjectUpdate{{
		ID:  courierA,
		New: roadknn.Position{Edge: streets[3], Frac: 0.75},
	}}})
	report(srv, dispatcher, "after courier A moved")

	// Timestamp 2: rush hour on one street quadruples its travel time.
	// Results can change although nobody moved - the road-network effect
	// the paper highlights.
	srv.Step(roadknn.Updates{Edges: []roadknn.EdgeUpdate{{
		Edge: streets[6], NewW: 800,
	}}})
	report(srv, dispatcher, "after congestion on the dispatcher's street")

	// Timestamp 3: the dispatcher relocates one block north.
	srv.Step(roadknn.Updates{Queries: []roadknn.QueryUpdate{{
		ID: dispatcher, New: roadknn.Position{Edge: streets[11], Frac: 0.5},
	}}})
	report(srv, dispatcher, "after the dispatcher moved")

	// Cross-check the final answer against the snapshot oracle.
	oracle := roadknn.SnapshotKNN(net, roadknn.Position{Edge: streets[11], Frac: 0.5}, 2)
	fmt.Printf("oracle agrees: %v\n", fmt.Sprint(oracle) == fmt.Sprint([]roadknn.Neighbor(srv.Result(dispatcher))))
}

func report(srv roadknn.Engine, q roadknn.QueryID, label string) {
	fmt.Printf("%-45s", label+":")
	for _, nb := range srv.Result(q) {
		fmt.Printf("  courier %d at %.0fm", nb.Obj, nb.Dist)
	}
	fmt.Println()
}
