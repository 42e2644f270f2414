// Command netgen generates a synthetic road network (San-Francisco-like or
// Oldenburg-like statistics, see package internal/gen for what the
// generators reproduce of the paper's two maps) and writes it as JSON, along
// with summary statistics on stderr.
//
// Usage:
//
//	netgen -edges 10000 -seed 1 -o network.json
//	netgen -oldenburg -o oldenburg.json
//	netgen -edges 1000 -stats        # statistics only, no file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// fileFormat is the on-disk JSON schema, shared with cmd/monitor.
type fileFormat struct {
	Nodes []fileNode `json:"nodes"`
	Edges []fileEdge `json:"edges"`
}

type fileNode struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type fileEdge struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w"`
}

func main() {
	var (
		edges     = flag.Int("edges", 10000, "approximate number of edges")
		seed      = flag.Int64("seed", 1, "generator seed")
		oldenburg = flag.Bool("oldenburg", false, "generate the Oldenburg-like network instead")
		out       = flag.String("o", "", "output JSON file (default stdout)")
		statsOnly = flag.Bool("stats", false, "print statistics only, write no network")
	)
	flag.Parse()

	var g *graph.Graph
	if *oldenburg {
		g = gen.OldenburgLike(*seed)
	} else {
		g = gen.SanFranciscoLike(*edges, *seed)
	}
	printStats(g)
	if *statsOnly {
		return
	}

	ff := fileFormat{
		Nodes: make([]fileNode, g.NumNodes()),
		Edges: make([]fileEdge, g.NumEdges()),
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		ff.Nodes[i] = fileNode{X: n.Pt.X, Y: n.Pt.Y}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		ff.Edges[i] = fileEdge{U: int32(e.U), V: int32(e.V), W: e.W}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(ff); err != nil {
		fmt.Fprintf(os.Stderr, "netgen: %v\n", err)
		os.Exit(1)
	}
}

func printStats(g *graph.Graph) {
	deg := map[int]int{}
	for i := 0; i < g.NumNodes(); i++ {
		deg[g.Degree(graph.NodeID(i))]++
	}
	seqs := roadnet.DecomposeSequences(g)
	maxSeq := 0
	for i := range seqs.Seqs {
		if n := len(seqs.Seqs[i].Edges); n > maxSeq {
			maxSeq = n
		}
	}
	_, comps := g.ConnectedComponents()
	fmt.Fprintf(os.Stderr, "nodes=%d edges=%d components=%d sequences=%d longest-sequence=%d edges\n",
		g.NumNodes(), g.NumEdges(), comps, len(seqs.Seqs), maxSeq)
	fmt.Fprintf(os.Stderr, "degree histogram:")
	for d := 1; d <= 8; d++ {
		if deg[d] > 0 {
			fmt.Fprintf(os.Stderr, " %d:%d", d, deg[d])
		}
	}
	fmt.Fprintln(os.Stderr)
}
