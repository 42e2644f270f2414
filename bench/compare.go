package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration reads BENCHMARK.json from the root of the checkout, where
// the command is started.
func loadDeclaration() (*declaration, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// exactCounts are the traced metrics that count work instead of timing it:
// two runs of one seed on one commit must report them bit for bit.
var exactCounts = []string{
	"core.size_mb", "core.rows_changed_frac", "planner.migrations", "planner.groups",
	"serve.delta_kb_per_tick", "serve.snapshot_kb", "wal.kb_per_tick", "loadgen.reports_per_tick",
}

func readRecords(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &result{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives. Fewer than two values have none.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}

type runKey struct {
	workload string
	seed     int64
	trace    bool
}

// compareFiles prints, for every workload and end-to-end metric, both
// files' medians, their ratio and a verdict, then holds the two files'
// same-seed runs against each other for determinism. It returns the exit
// code: 1 on a regression or a determinism break, 2 when it cannot compare.
func compareFiles(aPath, bPath string, w io.Writer) int {
	decl, err := loadDeclaration()
	var a, b []*result
	if err == nil {
		a, err = readRecords(aPath)
	}
	if err == nil {
		b, err = readRecords(bPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	values := func(rs []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-14s %-18s %-10s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "a (base)", "b", "b/a", "iqr a", "iqr b", "bound", "verdict")
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := mb/ma - 1
			if m.Better == "higher" {
				worse = 1 - mb/ma
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %-10s %14.4f %14.4f %9.4f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, ma, mb, mb/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}

	// Same workload, seed and pass in both files: the inputs, the results
	// and every counted metric must be identical.
	byKey := map[runKey]*result{}
	for _, r := range a {
		byKey[runKey{r.Workload, r.Seed, r.Trace}] = r
	}
	for _, rb := range b {
		ra, ok := byKey[runKey{rb.Workload, rb.Seed, rb.Trace}]
		if !ok {
			continue
		}
		where := fmt.Sprintf("%s seed %d trace %v", rb.Workload, rb.Seed, rb.Trace)
		if ra.StreamDigest != rb.StreamDigest || ra.MeasuredTicks != rb.MeasuredTicks {
			fmt.Fprintf(w, "%s: not comparable: stream %s/%d ticks vs %s/%d ticks\n",
				where, ra.StreamDigest, ra.MeasuredTicks, rb.StreamDigest, rb.MeasuredTicks)
			code = 1
			continue
		}
		if ra.SnapshotCRC != rb.SnapshotCRC {
			fmt.Fprintf(w, "%s: snapshot crc %s vs %s\n", where, ra.SnapshotCRC, rb.SnapshotCRC)
			code = 1
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(w, "%s: failed operations %d vs %d\n", where, ra.Failed, rb.Failed)
			code = 1
		}
		for _, name := range exactCounts {
			ma, oka := ra.Metrics[name]
			mb, okb := rb.Metrics[name]
			if oka && okb && ma.Value != mb.Value {
				fmt.Fprintf(w, "%s: %s %v vs %v\n", where, name, ma.Value, mb.Value)
				code = 1
			}
		}
	}
	return code
}
