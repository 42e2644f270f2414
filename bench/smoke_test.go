package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestMain moves to the root of the checkout, where the command runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smokeSpec shrinks a workload to 2% of its size and a few ticks.
func smokeSpec(sp *spec) *spec {
	c := *sp
	c.cfg = c.cfg.Scale(0.02)
	c.warmup = 3
	if c.period > 0 {
		c.period = 20 * time.Millisecond
	}
	return &c
}

// TestSmoke runs every workload, untraced and traced, and holds what it
// emits against what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []declared) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		slices.Sort(out)
		return out
	}
	var declaredWorkloads []string
	for _, w := range decl.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	var have []string
	for _, sp := range specs {
		have = append(have, sp.name)
	}
	if !slices.Equal(have, declaredWorkloads) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, declaredWorkloads)
	}

	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			want := names(decl.EndToEnd)
			name := sp.name + "/e2e"
			if trace {
				want = names(decl.PerLayer)
				name = sp.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(smokeSpec(sp), 1, 1, trace, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if got := sortedKeys(res.Metrics); !slices.Equal(got, want) {
					t.Fatalf("metrics\n got %v\nwant %v", got, want)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
				for _, d := range append(decl.EndToEnd, decl.PerLayer...) {
					if m, ok := res.Metrics[d.Name]; ok && m.Unit != d.Unit {
						t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
				}
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
					return
				}
				if _, err := os.Stat(filepath.Join(outDir, sp.name+".trace.jsonl")); err != nil {
					t.Error(err)
				}
			})
		}
	}
	// No run may leave a log directory behind.
	left, err := filepath.Glob(filepath.Join(outDir, "wal-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("left behind: %v %v", left, err)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want 1", got)
	}
}
