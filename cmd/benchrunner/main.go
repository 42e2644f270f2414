// Command benchrunner regenerates the tables and figures of the paper's
// experimental evaluation (§6). Each figure is a parameter sweep comparing
// OVH, IMA and GMA on identical update streams; the output is one aligned
// table per figure with the measured metric per engine and series.
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp f13b                # one figure
//	benchrunner -exp all -scale 0.25     # full suite at quarter scale
//	benchrunner -exp f14a -scale 1 -ts 100  # paper-scale run
//
// Absolute numbers depend on the machine; the shapes (who wins, by what
// factor, where the crossovers fall) are what reproduce the paper. The
// service layers (WAL, ingestion, deltas, replication, worker pool,
// planner, live topology) are measured by the claim-bearing benchmark in
// bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"roadknn/internal/experiments"
)

func main() {
	var (
		expID   = flag.String("exp", "all", "experiment id (e.g. f13a) or 'all'")
		scale   = flag.Float64("scale", 0.25, "workload scale factor (1 = paper scale)")
		ts      = flag.Int("ts", 20, "timestamps per run (paper: 100)")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", -1, "engine worker-pool size (-1 = registry default: serial, 0 = GOMAXPROCS, 1 = serial)")
		list    = flag.Bool("list", false, "list experiments and exit")
		csv     = flag.String("csv", "", "also append results as CSV to this file")
	)
	flag.Parse()

	exps := experiments.All(*scale, *ts, *seed)
	if *workers >= 0 {
		for i := range exps {
			for j := range exps[i].Points {
				exps[i].Points[j].Cfg.Workers = *workers
			}
		}
	}
	if *list {
		for _, e := range exps {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	var toRun []experiments.Experiment
	if *expID == "all" {
		toRun = exps
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e := experiments.ByID(exps, strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(1)
			}
			toRun = append(toRun, *e)
		}
	}

	var csvFile *os.File
	if *csv != "" {
		f, err := os.OpenFile(*csv, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "open csv: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		csvFile = f
	}

	for _, e := range toRun {
		runExperiment(&e, *scale, *ts, csvFile)
	}
}

func runExperiment(e *experiments.Experiment, scale float64, ts int, csvFile *os.File) {
	unit := "s/ts"
	if e.Metric == experiments.Mem {
		unit = "KB"
	}
	fmt.Printf("\n== %s: %s (scale %g, %d ts) ==\n", strings.ToUpper(e.ID), e.Title, scale, ts)
	fmt.Printf("   paper shape: %s\n", e.Shape)
	fmt.Printf("%12s", e.Param)
	for _, eng := range e.Engines {
		fmt.Printf("  %12s", eng+" "+unit)
	}
	fmt.Println()
	for _, p := range e.Points {
		fmt.Printf("%12s", p.Label)
		for _, eng := range e.Engines {
			v := experiments.Cell(e, p, eng)
			fmt.Printf("  %12.4f", v)
			if csvFile != nil {
				fmt.Fprintf(csvFile, "%s,%s,%s,%s,%g\n", e.ID, p.Label, eng, unit, v)
			}
		}
		fmt.Println()
	}
}
