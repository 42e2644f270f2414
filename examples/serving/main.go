// Example serving demonstrates the concurrent serving runtime: an engine
// built with Options{Serving: true} publishes an immutable, epoch-
// versioned snapshot after every Step, so reader goroutines query k-NN
// results lock-free while the pipeline keeps stepping — no coordination,
// no blocking, and every read internally consistent (all results from one
// timestamp).
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"roadknn"
)

func main() {
	net := roadknn.GenerateNetwork(2000, 42)
	rng := rand.New(rand.NewSource(42))

	// 500 pedestrians, 50 continuous 4-NN taxis, stepped by a GMA engine
	// with a persistent 4-worker pool and the snapshot read path on.
	for i := 0; i < 500; i++ {
		net.AddObject(roadknn.ObjectID(i), net.UniformPosition(rng))
	}
	srv := roadknn.NewGMAWith(net, roadknn.Options{Workers: 4, Serving: true})
	defer srv.Close()
	for i := 0; i < 50; i++ {
		srv.Register(roadknn.QueryID(i), net.UniformPosition(rng), 4)
	}

	// Readers: poll the latest snapshot as fast as they like, concurrently
	// with the writer below. Each snapshot is one consistent timestamp.
	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				for i := 0; i < snap.Len(); i++ {
					_, res := snap.At(i)
					_ = res // serve it, aggregate it, ship it…
				}
				reads.Add(int64(snap.Len()))
			}
		}()
	}

	// Writer: 50 timestamps of movement, full speed, never waiting for
	// readers.
	for ts := 0; ts < 50; ts++ {
		var u roadknn.Updates
		for i := range 500 {
			if rng.Float64() < 0.2 {
				id := roadknn.ObjectID(i)
				pos, _ := net.ObjectPos(id) // the writer owns the network
				np := net.RandomWalk(pos, net.AvgEdgeLength(), 0, rng)
				u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: np})
			}
		}
		srv.Step(u)
	}
	close(stop)
	wg.Wait()

	final := srv.Snapshot()
	fmt.Printf("stepped to timestamp %d (epoch %d) while readers did %d lock-free result reads\n",
		final.Timestamp(), final.Epoch(), reads.Load())
	q0 := final.Result(0)
	fmt.Printf("query 0's 4-NN at the final timestamp: ")
	for _, nb := range q0 {
		fmt.Printf("obj %d @ %.3f  ", nb.Obj, nb.Dist)
	}
	fmt.Println()
}
