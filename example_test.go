package roadknn_test

import (
	"fmt"

	"roadknn"
)

// Example demonstrates the complete monitoring loop on a hand-built
// network: initial result, an object movement, and a congestion update.
func Example() {
	b := roadknn.NewNetworkBuilder()
	a := b.AddNode(0, 0)
	c := b.AddNode(1, 0)
	d := b.AddNode(2, 0)
	e0 := b.AddEdge(a, c, 1)
	e1 := b.AddEdge(c, d, 1)
	net := b.Build()

	net.AddObject(1, roadknn.Position{Edge: e1, Frac: 0.5})

	srv := roadknn.NewIMA(net)
	srv.Register(100, roadknn.Position{Edge: e0, Frac: 0.0}, 1)
	fmt.Printf("initial: obj %d at %.1f\n", srv.Result(100)[0].Obj, srv.Result(100)[0].Dist)

	srv.Step(roadknn.Updates{Objects: []roadknn.ObjectUpdate{{
		ID:  1,
		New: roadknn.Position{Edge: e0, Frac: 0.5},
	}}})
	fmt.Printf("after move: obj %d at %.1f\n", srv.Result(100)[0].Obj, srv.Result(100)[0].Dist)

	srv.Step(roadknn.Updates{Edges: []roadknn.EdgeUpdate{{Edge: e0, NewW: 3}}})
	fmt.Printf("after congestion: obj %d at %.1f\n", srv.Result(100)[0].Obj, srv.Result(100)[0].Dist)

	// Output:
	// initial: obj 1 at 1.5
	// after move: obj 1 at 0.5
	// after congestion: obj 1 at 1.5
}

// ExampleSnapshotKNN answers a one-time query without continuous
// monitoring.
func ExampleSnapshotKNN() {
	net := roadknn.GenerateNetwork(300, 42)
	for i := 0; i < 10; i++ {
		net.AddObject(roadknn.ObjectID(i), roadknn.Position{
			Edge: roadknn.EdgeID(i * 13 % net.G.NumEdges()), Frac: 0.5,
		})
	}
	res := roadknn.SnapshotKNN(net, roadknn.Position{Edge: 0, Frac: 0}, 3)
	fmt.Println(len(res))
	// Output: 3
}
