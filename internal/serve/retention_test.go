package serve

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"roadknn"
	"roadknn/internal/wal"
)

// TestTickBuffersReleasedAfterChurn publishes one high-churn epoch — every
// edge weight changes, so nearly every row changes and the delta outweighs
// the snapshot — then quiet epochs, on three servers fed the same reports:
// one whose engine publishes no deltas, one that does, and one that does and
// is WAL-backed, checkpointing every other tick. After the quiet ticks
// nothing of the churn epoch may stay behind:
//   - the arrays its delta was built in are garbage (weak pointers): the
//     publisher seals them into the Delta and keeps no arena between epochs;
//   - the live heap each server adds to the one before it is within an
//     eighth of a snapshot: deltas leave no arena at their high-water mark,
//     and no buffer the snapshot's checksum or its checkpoint image was
//     encoded in outlives its tick.
//
// It logs the bytes retained on one line.
func TestTickBuffersReleasedAfterChurn(t *testing.T) {
	const objects, queries, k = 20_000, 1_000, 40
	// run builds a server, loads it, runs the churn tick and three quiet
	// ticks, and returns it with weak pointers to the churn delta's arrays
	// and their bytes.
	run := func(deltas, durable bool) (s *Server, arrays []weak.Pointer[byte], bytes int) {
		net := roadknn.GenerateNetwork(2_000, 52)
		eng := roadknn.NewIMAWith(net, roadknn.Options{Workers: 1, Serving: true, Deltas: deltas})
		var cfg Config
		if durable {
			fs, err := wal.DirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			l, rec, err := wal.Open(fs, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg = Config{WAL: l, CheckpointEvery: 2}
			s = New(eng, cfg)
			if _, err := s.Recover(rec); err != nil {
				t.Fatal(err)
			}
		} else {
			s = New(eng, cfg)
		}
		t.Cleanup(s.Close)
		rng := rand.New(rand.NewSource(52))
		ingest(s, func(b *Batcher) {
			for i := range objects {
				b.Object(roadknn.ObjectID(i), net.UniformPosition(rng))
			}
			for q := range queries {
				b.Query(roadknn.QueryID(q), k, net.UniformPosition(rng))
			}
		})
		s.Tick()
		ingest(s, func(b *Batcher) {
			for e := range net.G.NumEdges() {
				b.Edge(roadknn.EdgeID(e), net.G.Edge(roadknn.EdgeID(e)).W*(0.8+0.4*rng.Float64()))
			}
		})
		churn := s.Tick()
		if deltas {
			arrays, bytes = churnArrays(t, churn, churn.Delta(), queries)
		}
		for range 3 {
			s.Tick()
		}
		return s, arrays, bytes
	}
	// live is the live heap: two cycles, so the first one's finalizers and
	// sync.Pool victims are gone too.
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	h0 := live()
	quiet, _, _ := run(false, false)
	h1 := live()
	plain, plainArrays, deltaBytes := run(true, false)
	h2 := live()
	durable, durableArrays, _ := run(true, true)
	h3 := live()
	snapBytes := durable.broker.newest().EncodedLen()
	retained := 0
	for _, w := range append(plainArrays, durableArrays...) {
		if w.Value() != nil {
			retained++
		}
	}
	byDeltas, byWAL := (h2-h1)-(h1-h0), (h3-h2)-(h2-h1)
	t.Logf("retained after churn: %d of %d churn delta arrays (%d bytes); deltas %+d bytes, WAL %+d bytes over the server without (snapshot %d bytes)",
		retained, len(plainArrays)+len(durableArrays), deltaBytes, byDeltas, byWAL, snapBytes)
	if retained > 0 {
		t.Errorf("%d arrays of the churn epoch's delta are still reachable after 3 quiet ticks", retained)
	}
	if byDeltas > int64(snapBytes/8) {
		t.Errorf("the server publishing deltas holds %d bytes more than the one without, past an eighth of the %d-byte snapshot", byDeltas, snapBytes)
	}
	if byWAL > int64(snapBytes/8) {
		t.Errorf("the WAL-backed server holds %d bytes more than the plain one, past an eighth of the %d-byte snapshot", byWAL, snapBytes)
	}
	runtime.KeepAlive(quiet)
	runtime.KeepAlive(plain)
	runtime.KeepAlive(durable)
}

// churnArrays checks that the churn epoch's delta d changes at least nine in
// ten of the queries and outweighs its snapshot, and returns weak pointers to
// the arrays it was built in — its QueryDeltas, and the arrays the first
// non-empty Left and Updated start — with the bytes those hold.
func churnArrays(t *testing.T, churn *roadknn.Snapshot, d *roadknn.Delta, queries int) (arrays []weak.Pointer[byte], bytes int) {
	t.Helper()
	if d.EncodedLen() <= churn.EncodedLen() || d.Len() < queries*9/10 {
		t.Fatalf("test premise: the churn delta changes %d of %d queries in %d bytes, the snapshot weighs %d",
			d.Len(), queries, d.EncodedLen(), churn.EncodedLen())
	}
	arrays = append(arrays, weak.Make((*byte)(unsafe.Pointer(&d.Queries[0]))))
	var left, upd int
	for i := range d.Queries {
		q := &d.Queries[i]
		if left == 0 && len(q.Left) > 0 {
			arrays = append(arrays, weak.Make((*byte)(unsafe.Pointer(&q.Left[0]))))
		}
		if upd == 0 && len(q.Updated) > 0 {
			arrays = append(arrays, weak.Make((*byte)(unsafe.Pointer(&q.Updated[0]))))
		}
		left, upd = left+len(q.Left), upd+len(q.Updated)
	}
	if left == 0 || upd == 0 {
		t.Fatalf("test premise: the churn delta has %d Left and %d Updated entries", left, upd)
	}
	return arrays, len(d.Queries)*int(unsafe.Sizeof(d.Queries[0])) +
		left*int(unsafe.Sizeof(roadknn.ObjectID(0))) + upd*int(unsafe.Sizeof(roadknn.Neighbor{}))
}
