package roadknn_test

// Identity goldens: the per-tick snapshot CRC sequence of IMA, GMA and AUTO
// over one mixed stream, pinned in testdata/. A restructuring of the
// engines that claims to be behaviour-preserving must reproduce every
// published byte, so the sequences — and AUTO's placement counters, which
// prove the planner made the same decisions at the same ticks — must pass
// unmodified. Regenerate only with a deliberate behaviour change
// (go test -run TestIdentityGoldens -update-identity .).
//
// OVH, which recomputes every query from scratch at every tick, is the
// reference: path costs are exact multiples of one quantum, so every
// shortest-path distance is a function of the network alone, not of the
// update history that led to it, and every run must publish OVH's bytes at
// every tick.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"roadknn/internal/core"
	"roadknn/internal/experiments"
	"roadknn/internal/gen"
	"roadknn/internal/planner"
	"roadknn/internal/roadnet"
	"roadknn/internal/workload"
)

var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/identity.golden from the current code")

const (
	identityTicks   = 64
	identityRebuild = 30 // a mid-run Rebuild: it must change no row, and later ticks must still match OVH
)

// identityChurn layers object and query insert/delete traffic, with mixed
// k, over the workload generator's moves. It draws from its own seeded rng
// and reads only the engine's network, so every engine fed the same
// updates sees the same churn.
type identityChurn struct {
	rng     *rand.Rand
	net     *roadnet.Network
	nextObj roadnet.ObjectID
	extras  []roadnet.ObjectID
	nextQry core.QueryID
	live    []core.QueryID // registered ids
}

func newIdentityChurn(cfg workload.Config, net *roadnet.Network) *identityChurn {
	c := &identityChurn{
		rng:     rand.New(rand.NewSource(cfg.Seed + 424243)),
		net:     net,
		nextObj: roadnet.ObjectID(cfg.NumObjects),
		nextQry: core.QueryID(cfg.NumQueries),
	}
	for i := 0; i < cfg.NumQueries; i++ {
		c.live = append(c.live, core.QueryID(i))
	}
	return c
}

func (c *identityChurn) k() int { return []int{4, 8, 12}[c.rng.Intn(3)] }

// position draws a uniform position on an edge that this batch's topology
// edits (applied first by the engines) leave alive.
func (c *identityChurn) position(u *core.Updates) roadnet.Position {
draw:
	for {
		pos := c.net.UniformPosition(c.rng)
		for _, t := range u.Topology {
			if t.Op == core.TopoRemove && t.Edge == pos.Edge {
				continue draw
			}
		}
		return pos
	}
}

func (c *identityChurn) add(ts int, u *core.Updates) {
	// Objects: two arrivals per tick, one departure every other tick.
	for i := 0; i < 2; i++ {
		id := c.nextObj
		c.nextObj++
		c.extras = append(c.extras, id)
		u.Objects = append(u.Objects, core.ObjectUpdate{ID: id, New: c.position(u), Insert: true})
	}
	if ts%2 == 0 {
		i := c.rng.Intn(len(c.extras) - 2) // never one of this tick's arrivals
		id := c.extras[i]
		c.extras = append(c.extras[:i], c.extras[i+1:]...)
		u.Objects = append(u.Objects, core.ObjectUpdate{ID: id, Delete: true})
	}
	// Queries: a termination every 4th tick (the generator keeps sending
	// moves for terminated ids — the unknown-move path), a same-batch
	// Delete+Insert with a new k every 5th (what the serving Batcher emits
	// for a re-registration), a fresh id every 3rd.
	if ts%4 == 0 {
		i := c.rng.Intn(len(c.live))
		u.Queries = append(u.Queries, core.QueryUpdate{ID: c.live[i], Delete: true})
		c.live = append(c.live[:i], c.live[i+1:]...)
	}
	if ts%5 == 0 {
		id := c.live[c.rng.Intn(len(c.live))]
		u.Queries = append(u.Queries,
			core.QueryUpdate{ID: id, Delete: true},
			core.QueryUpdate{ID: id, New: c.position(u), K: c.k(), Insert: true})
	}
	if ts%3 == 0 {
		id := c.nextQry
		c.nextQry++
		c.live = append(c.live, id)
		u.Queries = append(u.Queries, core.QueryUpdate{ID: id, New: c.position(u), K: c.k(), Insert: true})
	}
}

func identityConfig() workload.Config {
	cfg := workload.Default().Scale(0.02) // 200 edges, 2000 objects, 100 queries
	cfg.K = 8
	cfg.Timestamps = identityTicks
	// The planner oracle's mixed workload: a sparse uniform base with 40% of
	// the queries in a drifting hotspot, so AUTO stays split and migrates.
	cfg.QryDist = gen.Uniform
	cfg.HotspotFrac = 0.4
	cfg.HotspotDrift = 0.04
	cfg.TopoAgility = 0.005 // one structural edit per generated batch
	return cfg
}

// identityDrive builds one engine and steps it over the stream, calling
// tick after every Step. The caller closes the returned engine.
func identityDrive(engine string, workers int, tick func(ts int, eng core.Engine)) core.Engine {
	cfg := identityConfig()
	opts := core.Options{Workers: workers, Serving: true, Planner: core.PlannerOptions{PlanEvery: 5}}
	r, _ := workload.NewRunner(cfg, experiments.EngineWith(engine, opts))
	eng := r.Engine()
	churn := newIdentityChurn(cfg, eng.Network())
	for ts := 1; ts <= identityTicks; ts++ {
		u := r.GenerateStep()
		if ts%3 != 0 {
			// Topology on every third tick only: in between, the grouped
			// layer's active-node monitors carry incremental state across
			// ticks instead of being rebuilt by a redecomposition.
			u.Topology = nil
		}
		churn.add(ts, &u)
		eng.Step(u)
		tick(ts, eng)
	}
	return eng
}

// sameRow reports whether two results agree in objects, order and the bits
// of every distance.
func sameRow(a, b []core.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Obj != b[i].Obj || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// rowDiffs counts the queries of a whose row in b differs or is missing.
func rowDiffs(a, b *core.Snapshot) int {
	n := 0
	for i := range a.Len() {
		id, row := a.At(i)
		if other, ok := b.Lookup(id); !ok || !sameRow(row, other) {
			n++
		}
	}
	return n
}

// identityRun steps one engine over the stream and returns its golden
// block — one CRC per tick, plus the planner counters for AUTO — its
// snapshot after every tick, and its work counters after every tick (none
// for OVH). The Rebuild at tick 30 must change no published row. Given the
// snapshots OVH published over the stream, every tick's snapshot must
// encode byte for byte as OVH's did; the first tick that does not is
// reported.
func identityRun(t *testing.T, engine string, workers int, ovh []*core.Snapshot) (string, []*core.Snapshot, []core.StepStats) {
	t.Helper()
	var out bytes.Buffer
	var snaps []*core.Snapshot
	var stats []core.StepStats
	fmt.Fprintf(&out, "%s workers=%d\n", engine, workers)
	eng := identityDrive(engine, workers, func(ts int, eng core.Engine) {
		if ts == identityRebuild {
			before := eng.Snapshot()
			eng.(core.Rebuilder).Rebuild()
			if d := rowDiffs(before, eng.Snapshot()); d != 0 {
				t.Errorf("%s workers=%d: the Rebuild at tick %d changed %d rows", engine, workers, ts, d)
			}
		}
		snap := eng.Snapshot()
		if ovh != nil && !bytes.Equal(snap.AppendBinary(nil), ovh[ts-1].AppendBinary(nil)) {
			t.Errorf("%s workers=%d: tick %d (epoch %d, stamp %d) differs from OVH's (epoch %d, stamp %d) in %d of %d rows",
				engine, workers, ts, snap.Epoch(), snap.Timestamp(), ovh[ts-1].Epoch(), ovh[ts-1].Timestamp(), rowDiffs(ovh[ts-1], snap), ovh[ts-1].Len())
			ovh = nil // one report per run: its first tick that differs
		}
		snaps = append(snaps, snap)
		if s, ok := eng.(interface{ StepStats() core.StepStats }); ok {
			stats = append(stats, s.StepStats())
		}
		fmt.Fprintf(&out, "%08x", snap.CRC32())
		if ts%8 == 0 {
			out.WriteByte('\n')
		} else {
			out.WriteByte(' ')
		}
	})
	defer eng.Close()
	if sp, ok := eng.(planner.StatsProvider); ok {
		st := sp.PlannerStats()
		fmt.Fprintf(&out, "migrations=%d migrated_queries=%d cross_moves=%d replans=%d groups_gma=%d\n",
			st.Migrations, st.MigratedQueries, st.CrossMoves, st.Replans, st.GroupsGMA)
		if st.Migrations == 0 || st.GroupsGMA == 0 || st.QueriesIMA == 0 || st.QueriesGMA == 0 || st.Replans == 0 {
			t.Errorf("%s workers=%d: the stream never split the workload: %+v", engine, workers, st)
		}
	}
	return out.String(), snaps, stats
}

func TestIdentityGoldens(t *testing.T) {
	_, ovh, _ := identityRun(t, "OVH", 1, nil)
	var got bytes.Buffer
	for _, engine := range []string{"IMA", "GMA", "AUTO"} {
		// The counters count per-monitor calls (finalizes, the reports handed
		// to them, what each had to redo), so they are equal across worker
		// counts only if every monitor is delivered the same ops in the same
		// order: a delivery policy that drops, repeats or reorders one shows
		// here even when the results still agree.
		var serial []core.StepStats
		for _, workers := range []int{1, 4} {
			block, _, stats := identityRun(t, engine, workers, ovh)
			got.WriteString(block)
			if serial == nil {
				serial = stats
				continue
			}
			for i := range stats {
				if stats[i] != serial[i] {
					t.Fatalf("%s tick %d: StepStats differ\n workers=1 %+v\n workers=%d %+v", engine, i+1, serial[i], workers, stats[i])
				}
			}
		}
	}
	path := filepath.Join("testdata", "identity.golden")
	if *updateIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("identity golden differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("identity golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
