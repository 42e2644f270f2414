// Taxi dispatch: the motivating scenario of the paper's introduction.
//
// Vacant cabs are continuous queries, pedestrians requesting a ride are
// the data objects. Every timestamp cabs and pedestrians move, riders
// appear and are picked up (disappear), and each cab continuously sees its
// k nearest waiting riders in travel time. A trivial dispatcher assigns
// the globally closest (cab, rider) pair each timestamp.
//
// Run with:
//
//	go run ./examples/taxi
package main

import (
	"fmt"
	"math"
	"math/rand"

	"roadknn"
)

const (
	numCabs     = 40
	numRiders   = 120
	timestamps  = 20
	kNearest    = 3
	networkSize = 2000 // edges
)

func main() {
	net := roadknn.GenerateNetwork(networkSize, 2026)
	rng := rand.New(rand.NewSource(7))
	avgLen := net.AvgEdgeLength()

	// Waiting riders appear at random street positions.
	riderPos := map[roadknn.ObjectID]roadknn.Position{}
	nextRider := roadknn.ObjectID(0)
	spawnRider := func(u *roadknn.Updates) {
		id := nextRider
		nextRider++
		pos := net.UniformPosition(rng)
		riderPos[id] = pos
		if u == nil {
			net.AddObject(id, pos)
		} else {
			u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: pos, Insert: true})
		}
	}
	for i := 0; i < numRiders; i++ {
		spawnRider(nil)
	}

	// Cabs are the monitored queries; IMA monitors each cab individually.
	srv := roadknn.NewIMA(net)
	cabPos := map[roadknn.QueryID]roadknn.Position{}
	for i := 0; i < numCabs; i++ {
		id := roadknn.QueryID(i)
		cabPos[id] = net.UniformPosition(rng)
		srv.Register(id, cabPos[id], kNearest)
	}

	totalPickups := 0
	var totalWaitDist float64
	for ts := 1; ts <= timestamps; ts++ {
		var u roadknn.Updates

		// Cabs cruise, riders drift a little.
		for id, pos := range cabPos {
			np := net.RandomWalk(pos, avgLen, 0, rng)
			cabPos[id] = np
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: np})
		}
		for id, pos := range riderPos {
			if rng.Float64() < 0.2 {
				np := net.RandomWalk(pos, 0.3*avgLen, 0, rng)
				riderPos[id] = np
				u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: np})
			}
		}
		// A few new ride requests per timestamp.
		for i := 0; i < 5; i++ {
			spawnRider(&u)
		}
		// Traffic fluctuates on 2% of the streets.
		for i := 0; i < networkSize/50; i++ {
			eid := roadknn.EdgeID(rng.Intn(net.G.NumEdges()))
			w := net.G.Edge(eid).W
			if rng.Intn(2) == 0 {
				w *= 0.9
			} else {
				w *= 1.1
			}
			u.Edges = append(u.Edges, roadknn.EdgeUpdate{Edge: eid, NewW: w})
		}

		srv.Step(u)

		// Greedy dispatch: repeatedly match the globally closest pair.
		pickups := dispatch(srv, riderPos, &totalWaitDist)
		totalPickups += pickups
		fmt.Printf("ts %2d: %3d riders waiting, %d picked up\n", ts, len(riderPos), pickups)
	}
	fmt.Printf("\n%d pickups, mean pickup travel distance %.2f (= %.1f average street lengths)\n",
		totalPickups, totalWaitDist/float64(totalPickups),
		totalWaitDist/float64(totalPickups)/avgLen)
}

// dispatch assigns each cab at most one rider this timestamp, nearest
// global pair first, and removes picked-up riders from the system.
func dispatch(srv roadknn.Engine, riderPos map[roadknn.ObjectID]roadknn.Position, totalWait *float64) int {
	type pair struct {
		cab   roadknn.QueryID
		rider roadknn.ObjectID
		dist  float64
	}
	taken := map[roadknn.ObjectID]bool{}
	busy := map[roadknn.QueryID]bool{}
	pickups := 0
	var removed []roadknn.ObjectUpdate
	for {
		best := pair{dist: math.Inf(1)}
		for _, cab := range srv.Queries() {
			if busy[cab] {
				continue
			}
			for _, nb := range srv.Result(cab) {
				if taken[nb.Obj] {
					continue
				}
				// Results are sorted: the first free rider is the nearest.
				if nb.Dist < best.dist {
					best = pair{cab: cab, rider: nb.Obj, dist: nb.Dist}
				}
				break
			}
		}
		if math.IsInf(best.dist, 1) {
			break
		}
		taken[best.rider] = true
		busy[best.cab] = true
		*totalWait += best.dist
		pickups++
		removed = append(removed, roadknn.ObjectUpdate{ID: best.rider, Delete: true})
		delete(riderPos, best.rider)
	}
	if len(removed) > 0 {
		srv.Step(roadknn.Updates{Objects: removed})
	}
	return pickups
}
