package serve

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"roadknn"
	"roadknn/internal/wal"
)

// mapBatcher is the Batcher as it was built on Go maps: applied and pending
// state per object and per query, a pending weight per edge, each with its
// ids' first-report order. It is the reference the row tables and the edge
// slots must reproduce report for report. It has no topology half, which
// was never a map.
type mapBatcher struct {
	applied map[roadknn.ObjectID]roadknn.Position
	pend    map[roadknn.ObjectID]mapPend
	order   []roadknn.ObjectID

	qryApplied map[roadknn.QueryID]mapQry
	qryPend    map[roadknn.QueryID]mapQryPend
	qryOrder   []roadknn.QueryID

	edgePend map[roadknn.EdgeID]float64
	edgeOrd  []roadknn.EdgeID
}

type mapPend struct {
	pos roadknn.Position
	del bool
}

type mapQry struct {
	pos roadknn.Position
	k   int
}

type mapQryPend struct {
	pos            roadknn.Position
	k              int
	end, reinstall bool
}

func newMapBatcher() *mapBatcher {
	return &mapBatcher{
		applied: map[roadknn.ObjectID]roadknn.Position{}, pend: map[roadknn.ObjectID]mapPend{},
		qryApplied: map[roadknn.QueryID]mapQry{}, qryPend: map[roadknn.QueryID]mapQryPend{},
		edgePend: map[roadknn.EdgeID]float64{},
	}
}

// clone is the reference's state at an openLog, restored by a rollback.
func (m *mapBatcher) clone() *mapBatcher {
	return &mapBatcher{
		applied: maps.Clone(m.applied), pend: maps.Clone(m.pend), order: slices.Clone(m.order),
		qryApplied: maps.Clone(m.qryApplied), qryPend: maps.Clone(m.qryPend), qryOrder: slices.Clone(m.qryOrder),
		edgePend: maps.Clone(m.edgePend), edgeOrd: slices.Clone(m.edgeOrd),
	}
}

func (m *mapBatcher) object(id roadknn.ObjectID, p roadknn.Position) {
	if _, seen := m.pend[id]; !seen {
		m.order = append(m.order, id)
	}
	m.pend[id] = mapPend{pos: p}
}

func (m *mapBatcher) deleteObject(id roadknn.ObjectID) bool {
	_, applied := m.applied[id]
	_, pending := m.pend[id]
	if !applied && !pending {
		return false
	}
	if !pending {
		m.order = append(m.order, id)
	}
	m.pend[id] = mapPend{del: true}
	return true
}

func (m *mapBatcher) query(id roadknn.QueryID, k int, p roadknn.Position) {
	prev, seen := m.qryPend[id]
	if !seen {
		m.qryOrder = append(m.qryOrder, id)
	}
	m.qryPend[id] = mapQryPend{pos: p, k: k, reinstall: seen && (prev.end || prev.reinstall)}
}

func (m *mapBatcher) endQuery(id roadknn.QueryID) bool {
	_, applied := m.qryApplied[id]
	_, pending := m.qryPend[id]
	if !applied && !pending {
		return false
	}
	if !pending {
		m.qryOrder = append(m.qryOrder, id)
	}
	m.qryPend[id] = mapQryPend{end: true}
	return true
}

func (m *mapBatcher) needsK(id roadknn.QueryID) bool {
	if p, ok := m.qryPend[id]; ok && (p.end || p.reinstall) {
		return true
	}
	_, applied := m.qryApplied[id]
	return !applied
}

func (m *mapBatcher) edge(e roadknn.EdgeID, w float64) {
	if _, seen := m.edgePend[e]; !seen {
		m.edgeOrd = append(m.edgeOrd, e)
	}
	m.edgePend[e] = w
}

func (m *mapBatcher) pending() int { return len(m.pend) + len(m.qryPend) + len(m.edgePend) }

func (m *mapBatcher) pendingOnEdge(e roadknn.EdgeID) bool {
	for _, p := range m.pend {
		if !p.del && p.pos.Edge == e {
			return true
		}
	}
	for _, p := range m.qryPend {
		if !p.end && p.pos.Edge == e {
			return true
		}
	}
	return false
}

func (m *mapBatcher) preview() roadknn.Updates {
	var u roadknn.Updates
	for _, id := range m.order {
		p := m.pend[id]
		old, existed := m.applied[id]
		switch {
		case p.del && existed:
			u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, Delete: true})
		case p.del:
		case existed:
			if old != p.pos {
				u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: p.pos})
			}
		default:
			u.Objects = append(u.Objects, roadknn.ObjectUpdate{ID: id, New: p.pos, Insert: true})
		}
	}
	for _, id := range m.qryOrder {
		p := m.qryPend[id]
		old, existed := m.qryApplied[id]
		switch {
		case p.end && existed:
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, Delete: true})
		case p.end:
		case existed && p.reinstall:
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, Delete: true})
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: p.pos, K: p.k, Insert: true})
		case existed:
			if old.pos != p.pos {
				u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: p.pos})
			}
		default:
			u.Queries = append(u.Queries, roadknn.QueryUpdate{ID: id, New: p.pos, K: p.k, Insert: true})
		}
	}
	for _, e := range m.edgeOrd {
		u.Edges = append(u.Edges, roadknn.EdgeUpdate{Edge: e, NewW: m.edgePend[e]})
	}
	return u
}

func (m *mapBatcher) drain() roadknn.Updates {
	u := m.preview()
	for _, ou := range u.Objects {
		if ou.Delete {
			delete(m.applied, ou.ID)
		} else {
			m.applied[ou.ID] = ou.New
		}
	}
	for _, qu := range u.Queries {
		switch {
		case qu.Delete:
			delete(m.qryApplied, qu.ID)
		case qu.Insert:
			m.qryApplied[qu.ID] = mapQry{pos: qu.New, k: qu.K}
		default:
			m.qryApplied[qu.ID] = mapQry{pos: qu.New, k: m.qryApplied[qu.ID].k}
		}
	}
	clear(m.pend)
	clear(m.qryPend)
	clear(m.edgePend)
	m.order, m.qryOrder, m.edgeOrd = m.order[:0], m.qryOrder[:0], m.edgeOrd[:0]
	return u
}

func (m *mapBatcher) checkpoint() ([]wal.ObjectState, []wal.QueryState) {
	objs := make([]wal.ObjectState, 0, len(m.applied))
	for id, p := range m.applied {
		objs = append(objs, wal.ObjectState{ID: id, Pos: p})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	qrys := make([]wal.QueryState, 0, len(m.qryApplied))
	for id, q := range m.qryApplied {
		qrys = append(qrys, wal.QueryState{ID: int32(id), K: int32(q.k), Pos: q.pos})
	}
	sort.Slice(qrys, func(i, j int) bool { return qrys[i].ID < qrys[j].ID })
	return objs, qrys
}

// The model streams' id pools: small, so that rows are released and reused
// every few ticks, with the int32 extremes and the idtable's reserved key.
var (
	modelObjects = append([]roadknn.ObjectID{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, -1, -7, math.MaxInt32, math.MinInt32, 1 << 20},
		100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114)
	modelQueries = []roadknn.QueryID{0, 1, 2, -5, math.MaxInt32, math.MinInt32}
	modelWeights = []float64{1, 2, 3.5, 0.25}
)

const modelEdges = 6

// modelCounts is what one model stream exercised.
type modelCounts struct {
	reinstalls, rollbacks, weights int
}

// runBatcherModel feeds the Batcher and the map reference the report stream
// ops encodes, one byte an opcode or an argument (an exhausted stream reads
// as zeros). Opcodes (byte % 10): 0-1 object, 2 delete object, 3 query,
// 4 end query, 5 weight, 6 open a request (the undo log), 7 keep it,
// 8 roll it back, 9 drain (which first keeps an open request). A rollback
// restores the reference to a copy taken at the open. After every op the
// two must agree on Preview's WAL bytes, Pending, PendingObject, needsK and
// pendingOnEdge, and on every answer the mutators give; after every drain,
// on the drained batch's WAL bytes and the checkpointed objects and
// queries.
func runBatcherModel(t *testing.T, ops []byte) (n modelCounts) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		c := ops[0]
		ops = ops[1:]
		return int(c)
	}
	// A small position set makes re-reports of the applied position common.
	at := func() roadknn.Position { return pos(int32(next()%modelEdges), float64(next()%3)/2) }
	encode := func(seq uint64, u roadknn.Updates) []byte {
		return wal.EncodeRecords(nil, []wal.BatchRecord{{Seq: seq, Updates: u}})
	}

	b, ref := NewBatcher(), newMapBatcher()
	b.InitTopology(modelEdges, nil)
	var saved *mapBatcher // the reference at openLog, while a request is open
	tick := uint64(1)
	drain := func() {
		if saved != nil {
			b.closeLog()
			saved = nil
		}
		got, want := b.Drain(), ref.drain()
		if !bytes.Equal(encode(tick, got), encode(tick, want)) {
			t.Fatalf("tick %d: Drain\n%+v\nreference\n%+v", tick, got, want)
		}
		for i := 1; i < len(got.Queries); i++ {
			if got.Queries[i].Insert && got.Queries[i-1].Delete && got.Queries[i].ID == got.Queries[i-1].ID {
				n.reinstalls++
			}
		}
		n.weights += len(got.Edges)
		if b.Pending() != 0 {
			t.Fatalf("tick %d: %d reports pending after Drain", tick, b.Pending())
		}
		objs, qrys, _ := b.CheckpointState()
		wantObjs, wantQrys := ref.checkpoint()
		if !slices.Equal(objs, wantObjs) || !slices.Equal(qrys, wantQrys) {
			t.Fatalf("tick %d: checkpoint objects %v queries %v, reference %v %v", tick, objs, qrys, wantObjs, wantQrys)
		}
		tick++
	}
	for len(ops) > 0 {
		switch op := next() % 10; op {
		case 0, 1:
			id, p := modelObjects[next()%len(modelObjects)], at()
			if err := b.Object(id, p); err != nil {
				t.Fatalf("tick %d: Object(%d, %+v): %v", tick, id, p, err)
			}
			ref.object(id, p)
		case 2:
			id := modelObjects[next()%len(modelObjects)]
			if got, want := b.DeleteObject(id), ref.deleteObject(id); got != want {
				t.Fatalf("tick %d: DeleteObject(%d) = %v, reference %v", tick, id, got, want)
			}
		case 3:
			id, k, p := modelQueries[next()%len(modelQueries)], next()%4, at()
			err, wantErr := b.Query(id, k, p), k < 1 && ref.needsK(id)
			if (err != nil) != wantErr {
				t.Fatalf("tick %d: Query(%d, k=%d) error %v, reference rejects: %v", tick, id, k, err, wantErr)
			}
			if err == nil {
				ref.query(id, k, p)
			}
		case 4:
			id := modelQueries[next()%len(modelQueries)]
			if got, want := b.EndQuery(id), ref.endQuery(id); got != want {
				t.Fatalf("tick %d: EndQuery(%d) = %v, reference %v", tick, id, got, want)
			}
		case 5:
			e, w := roadknn.EdgeID(next()%modelEdges), modelWeights[next()%len(modelWeights)]
			if err := b.Edge(e, w); err != nil {
				t.Fatalf("tick %d: Edge(%d, %v): %v", tick, e, w, err)
			}
			ref.edge(e, w)
		case 6:
			if saved == nil {
				b.openLog()
				saved = ref.clone()
			}
		case 7:
			if saved != nil {
				b.closeLog()
				saved = nil
			}
		case 8:
			if saved != nil {
				b.rollback()
				ref, saved = saved, nil
				n.rollbacks++
			}
		case 9:
			drain()
		}
		if got, want := encode(tick, b.Preview()), encode(tick, ref.preview()); !bytes.Equal(got, want) {
			t.Fatalf("tick %d: Preview differs from the reference\n%+v\n%+v", tick, b.Preview(), ref.preview())
		}
		if b.Pending() != ref.pending() {
			t.Fatalf("tick %d: Pending %d, reference %d", tick, b.Pending(), ref.pending())
		}
		for _, id := range modelObjects {
			if _, want := ref.pend[id]; b.PendingObject(id) != want {
				t.Fatalf("tick %d: PendingObject(%d) = %v, reference %v", tick, id, !want, want)
			}
		}
		for _, id := range modelQueries {
			if got, want := b.needsK(id), ref.needsK(id); got != want {
				t.Fatalf("tick %d: needsK(%d) = %v, reference %v", tick, id, got, want)
			}
		}
		for e := roadknn.EdgeID(0); e < modelEdges; e++ {
			if got, want := b.pendingOnEdge(e), ref.pendingOnEdge(e); got != want {
				t.Fatalf("tick %d: pendingOnEdge(%d) = %v, reference %v", tick, e, got, want)
			}
		}
	}
	drain()
	return n
}

// modelStreams are TestBatcherMatchesMapModel's report streams and
// FuzzBatcherModel's seeds.
func modelStreams() [][]byte {
	rng := rand.New(rand.NewSource(23))
	streams := make([][]byte, 40)
	for i := range streams {
		streams[i] = make([]byte, 800)
		rng.Read(streams[i])
	}
	return streams
}

// TestBatcherMatchesMapModel drives the Batcher and the map reference over
// random report streams — inserts and deletes within one tick, deletes of
// unknown ids, deletes followed by re-reports, re-reports of the applied
// position, query ends, re-installs with a new k and moves after them,
// k-less installs, weight reports, and requests kept or rolled back — and
// compares them after every report (see runBatcherModel).
func TestBatcherMatchesMapModel(t *testing.T) {
	var total modelCounts
	for _, ops := range modelStreams() {
		n := runBatcherModel(t, ops)
		total.reinstalls += n.reinstalls
		total.rollbacks += n.rollbacks
		total.weights += n.weights
	}
	t.Logf("%+v", total)
	if total.reinstalls == 0 || total.rollbacks == 0 || total.weights == 0 {
		t.Fatalf("coverage: %+v", total)
	}
}

// FuzzBatcherModel is TestBatcherMatchesMapModel over arbitrary streams.
func FuzzBatcherModel(f *testing.F) {
	for _, ops := range modelStreams() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runBatcherModel(t, ops)
	})
}
