// Command bench is the repository's claim-bearing benchmark: four named
// workloads generated from a seed, every end-to-end metric printed by name
// and unit, outputs checked, and — in a separate traced pass — per-layer
// numbers timed from outside the program around its public functions.
// BENCHMARK.json declares the workloads and metrics; README.md in this
// directory is the glossary.
//
// From the root of a checkout (run.sh builds into .bench_build/ first):
//
//	sh bench/run.sh -workload paper_default -seed 1 -seconds 20 -trace 0
//	sh bench/run.sh -seed 1 -out bench/out/a.jsonl     # all four workloads
//	sh bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how often a run sets its system up (and recovers it):
// the reported time is the median, the last product is the one measured.
const setupRepeats = 5

// benchProcs pins GOMAXPROCS: the reference box has 2 cores, and results
// from different boxes must at least schedule alike.
const benchProcs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The embedded summary is the contract
// line the driver reads; the rest is the run header that makes two result
// files comparable.
type result struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Trace         bool   `json:"trace"`
	Seconds       int    `json:"seconds"`
	Nproc         int    `json:"nproc"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	WarmupTicks   int    `json:"warmup_ticks"`
	MeasuredTicks int    `json:"measured_ticks"`
	// Samples is the number of freshness samples behind the percentiles.
	Samples      int    `json:"samples"`
	StreamDigest string `json:"stream_digest"`
	SnapshotCRC  string `json:"snapshot_crc"`
	summary
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// progress notes on standard error where a run's wall-clock goes.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "# +%6.2fs %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

var processStart = time.Now()

// commitID is set by run.sh (-ldflags -X) when the checkout is a git
// repository; go run and go test stamp the build instead.
var commitID string

func commit() string {
	if commitID != "" {
		return commitID
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload generates the stream, runs one pass (end to end, or traced)
// and returns the filled-in result. A failed check is reported in the
// result and as an error.
func runWorkload(sp *spec, seed int64, seconds int, trace bool, measured int) (*result, error) {
	res := &result{
		Workload: sp.name, Seed: seed, Trace: trace, Seconds: seconds,
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit(),
		WarmupTicks: sp.warmup, MeasuredTicks: measured,
		summary: summary{Metrics: map[string]metric{}},
	}
	cfg := sp.cfg
	cfg.Seed = seed
	st, err := generate(cfg, sp.warmup+measured)
	if err != nil {
		return res, err
	}
	res.StreamDigest = fmt.Sprintf("%08x", st.digest)
	progress("%s: stream of %d ticks generated", sp.name, len(st.ticks))
	switch {
	case trace:
		err = runTraced(sp, st, res)
	case sp.service:
		err = measureService(sp, st, res)
	default:
		err = measureLibrary(sp, st, res)
	}
	res.Correct = err == nil && res.Failed == 0
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%s: %d of %d operations failed", sp.name, res.Failed, res.Attempted)
	}
	return res, err
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Int64("seed", 1, "the only source of randomness")
		seconds      = flag.Int("seconds", 20, "measured phase, as seconds of the workload's nominal tick rate")
		trace        = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and bench/out/<workload>.trace.jsonl")
		out          = flag.String("out", "", "append each run's full record to this JSON-lines file")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	runtime.GOMAXPROCS(benchProcs)

	run := specs
	if *workloadName != "" {
		sp := specByName(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		run = []*spec{sp}
	}
	code := 0
	for _, sp := range run {
		res, err := runWorkload(sp, *seed, *seconds, *trace == 1, sp.measuredTicks(*seconds, *trace == 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
		printHeader(res)
		if *out != "" {
			if werr := appendRecord(*out, res); werr != nil {
				fmt.Fprintln(os.Stderr, "bench:", werr)
				code = 1
			}
		}
		if err != nil && len(res.Metrics) == 0 {
			continue // nothing measured: no result line
		}
		line, _ := json.Marshal(res.summary)
		fmt.Println(string(line))
	}
	os.Exit(code)
}

func printHeader(r *result) {
	fmt.Printf("# %s seed=%d trace=%v nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Nproc, benchProcs, r.GoVersion, r.Commit)
	fmt.Printf("# ticks: %d warm-up + %d measured, %d freshness samples; stream_digest=%s snapshot_crc=%s\n",
		r.WarmupTicks, r.MeasuredTicks, r.Samples, r.StreamDigest, r.SnapshotCRC)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
}

func appendRecord(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
