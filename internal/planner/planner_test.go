package planner_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"roadknn/internal/core"
	"roadknn/internal/gen"
	"roadknn/internal/graph"
	"roadknn/internal/planner"
	"roadknn/internal/roadnet"
	"roadknn/internal/workload"
)

func autoMk(workers int) func(*roadnet.Network) core.Engine {
	return func(n *roadnet.Network) core.Engine {
		return planner.NewWith(n, core.Options{
			Workers: workers, Serving: true,
			Planner: core.PlannerOptions{PlanEvery: 5},
		})
	}
}

// sameNeighbors reports whether two results agree exactly: the same
// objects in the same order at the same distances, bit for bit. Path costs
// are whole numbers of graph.Quantum, so every engine sums them exactly,
// whatever the order.
func sameNeighbors(got, want []core.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Obj != want[i].Obj || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// TestPlannerRegisterUnregisterEpochs pins the planner's epoch discipline
// to a static engine's: one bump per Register/Unregister/Step, served from
// the planner's own merged publisher.
func TestPlannerRegisterUnregisterEpochs(t *testing.T) {
	cfg := workload.Default().Scale(0.004)
	cfg.NumQueries = 0
	net := workload.BuildNetwork(cfg)
	p := planner.NewWith(net, core.Options{Workers: 1, Serving: true})
	defer p.Close()

	base := p.Snapshot().Epoch()
	pos, ok := net.Snap(net.SI.Bounds().Min)
	if !ok {
		t.Fatal("no snap position")
	}
	p.Register(1, pos, 2)
	if e := p.Snapshot().Epoch(); e != base+1 {
		t.Fatalf("Register bumped epoch %d -> %d, want +1", base, e)
	}
	p.Step(core.Updates{})
	if e := p.Snapshot().Epoch(); e != base+2 {
		t.Fatalf("Step bumped epoch to %d, want %d", e, base+2)
	}
	if got := p.Queries(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Queries() = %v, want [1]", got)
	}
	p.Unregister(1)
	if e := p.Snapshot().Epoch(); e != base+3 {
		t.Fatalf("Unregister bumped epoch to %d, want %d", e, base+3)
	}
	if p.Snapshot().Len() != 0 {
		t.Fatalf("snapshot still carries %d queries after Unregister", p.Snapshot().Len())
	}
	if p.Name() != "AUTO" {
		t.Fatalf("Name() = %q", p.Name())
	}
}

// TestPlannerDuplicateInsertPanics: the core's one rule for a duplicate
// Insert holds under AUTO whichever mode the id's cell is labeled for — the
// planner has no say in it.
func TestPlannerDuplicateInsertPanics(t *testing.T) {
	cfg := workload.Default().Scale(0.004)
	cfg.NumQueries = 0
	net := workload.BuildNetwork(cfg)
	p := planner.NewWith(net, core.Options{Workers: 1})
	defer p.Close()
	pos := net.UniformPosition(rand.New(rand.NewSource(1)))
	ins := core.Updates{Queries: []core.QueryUpdate{{ID: 1, New: pos, K: 2, Insert: true}}}
	p.Step(ins)
	defer func() {
		if got := recover(); got != "core: query 1 already registered" {
			t.Fatalf("recovered %v, want Register's duplicate panic", got)
		}
		if got := p.Queries(); len(got) != 1 {
			t.Fatalf("Queries() = %v after the rejected batch", got)
		}
	}()
	p.Step(ins)
}

// reachableGraphs collects the distinct *graph.Graph values reachable from
// v through pointers, structs, slices, arrays, maps and interfaces
// (unexported fields included; reflection reads them without exposing
// them).
func reachableGraphs(v reflect.Value, seen map[unsafe.Pointer]bool, found map[*graph.Graph]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.UnsafePointer()] {
			return
		}
		seen[v.UnsafePointer()] = true
		if v.Type() == reflect.TypeFor[*graph.Graph]() {
			found[(*graph.Graph)(v.UnsafePointer())] = true
			return
		}
		reachableGraphs(v.Elem(), seen, found)
	case reflect.Interface:
		if !v.IsNil() {
			reachableGraphs(v.Elem(), seen, found)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reachableGraphs(v.Field(i), seen, found)
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Struct || k == reflect.Interface || k == reflect.Slice || k == reflect.Map {
			for i := 0; i < v.Len(); i++ {
				reachableGraphs(v.Index(i), seen, found)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			reachableGraphs(it.Value(), seen, found)
		}
	}
}

// TestPlannerOwnsTheOnlyNetwork: under AUTO there is one network — the one
// handed in. After a run with migrations its objects, edge set and weights
// equal those of the static engines fed the same stream (every update was
// applied, once), and the engine reaches exactly one graph: a second copy
// kept current next to it, as the two-engine composite once did, would
// show up here.
func TestPlannerOwnsTheOnlyNetwork(t *testing.T) {
	cfg := workload.Default().Scale(0.02)
	cfg.K = 8
	cfg.QryDist = gen.Uniform
	cfg.HotspotFrac = 0.4
	cfg.HotspotDrift = 0.04
	cfg.TopoAgility = 0.005

	auto, _ := workload.NewRunner(cfg, autoMk(1))
	ima, _ := workload.NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewIMAWith(n, core.Options{Workers: 1}) })
	gma, _ := workload.NewRunner(cfg, func(n *roadnet.Network) core.Engine { return core.NewGMAWith(n, core.Options{Workers: 1}) })
	runners := []*workload.Runner{auto, ima, gma}
	for ts := 0; ts < 40; ts++ {
		for _, r := range runners {
			r.Engine().Step(r.GenerateStep())
		}
	}
	if st := auto.Engine().(planner.StatsProvider).PlannerStats(); st.Migrations == 0 || st.QueriesGMA == 0 {
		t.Fatalf("the run never grouped anything: %+v", st)
	}

	net := auto.Engine().Network()
	for _, ref := range runners[1:] {
		rn := ref.Engine().Network()
		if net.NumObjects() != rn.NumObjects() || net.G.NumEdges() != rn.G.NumEdges() {
			t.Fatalf("AUTO's network holds %d objects on %d edges, %s's %d on %d",
				net.NumObjects(), net.G.NumEdges(), ref.Engine().Name(), rn.NumObjects(), rn.G.NumEdges())
		}
		for e := 0; e < net.G.NumEdges(); e++ {
			eid := graph.EdgeID(e)
			if net.G.EdgeAlive(eid) != rn.G.EdgeAlive(eid) || net.G.Edge(eid).W != rn.G.Edge(eid).W {
				t.Fatalf("edge %d differs from %s's network", e, ref.Engine().Name())
			}
		}
		net.ForEachObject(func(id roadnet.ObjectID, pos roadnet.Position) {
			if rp, ok := rn.ObjectPos(id); !ok || rp != pos {
				t.Fatalf("object %d at %+v, %s has it at %+v", id, pos, ref.Engine().Name(), rp)
			}
		})
	}

	found := map[*graph.Graph]bool{}
	reachableGraphs(reflect.ValueOf(auto.Engine()), map[unsafe.Pointer]bool{}, found)
	if len(found) != 1 || !found[net.G] {
		t.Fatalf("the engine reaches %d graphs, want only Network().G", len(found))
	}
	for _, r := range runners {
		r.Engine().Close()
	}
}
