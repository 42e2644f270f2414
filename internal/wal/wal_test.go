package wal

import (
	"strings"
	"testing"
	"time"

	"roadknn/internal/core"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

// testUpdates builds a small deterministic batch varying with seed.
func testUpdates(seed int) core.Updates {
	var u core.Updates
	u.Objects = append(u.Objects,
		core.ObjectUpdate{ID: roadnet.ObjectID(seed), New: roadnet.Position{Edge: graph.EdgeID(seed % 7), Frac: 0.25}, Insert: true},
		core.ObjectUpdate{ID: roadnet.ObjectID(seed + 100), New: roadnet.Position{Edge: 2, Frac: 0.75}},
	)
	if seed%2 == 0 {
		u.Queries = append(u.Queries, core.QueryUpdate{ID: core.QueryID(seed), New: roadnet.Position{Edge: 3, Frac: 0.1}, K: 4, Insert: true})
	}
	if seed%3 == 0 {
		u.Edges = append(u.Edges, core.EdgeUpdate{Edge: graph.EdgeID(seed % 5), NewW: float64(seed) + 0.5})
	}
	return u
}

func updatesEqual(a, b core.Updates) bool {
	if len(a.Objects) != len(b.Objects) || len(a.Queries) != len(b.Queries) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			return false
		}
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

func noSleep(opts Options) Options {
	opts.Sleep = func(time.Duration) {}
	return opts
}

func TestLogRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, rec, err := Open(fs, noSleep(Options{Sync: SyncTick}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec.Checkpoint != nil || len(rec.Batches) != 0 || rec.NextSeq() != 1 {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.AppendBatch(seq, testUpdates(int(seq))); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		if err := l.AppendTick(seq+10, seq, uint32(seq*7)); err != nil {
			t.Fatalf("tick %d: %v", seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, rec, err = Open(fs, noSleep(Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Batches) != 5 {
		t.Fatalf("recovered %d batches, want 5", len(rec.Batches))
	}
	for i, b := range rec.Batches {
		seq := uint64(i + 1)
		if b.Seq != seq || !updatesEqual(b.Updates, testUpdates(int(seq))) {
			t.Fatalf("batch %d mismatch: %+v", i, b)
		}
		if b.Tick == nil || b.Tick.Epoch != seq+10 || b.Tick.Stamp != seq || b.Tick.SnapCRC != uint32(seq*7) {
			t.Fatalf("batch %d tick mismatch: %+v", i, b.Tick)
		}
	}
	if rec.NextSeq() != 6 {
		t.Fatalf("NextSeq = %d, want 6", rec.NextSeq())
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	l, _, err := Open(ffs, noSleep(Options{Sync: SyncNever}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.AppendBatch(1, testUpdates(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTick(2, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Crash mid-write of batch 2, persisting 5 torn bytes of the record.
	ffs.CrashAfterWrites(ffs.Writes(), 5)
	if err := l.AppendBatch(2, testUpdates(2)); err == nil {
		t.Fatal("append after crash succeeded")
	}

	_, rec, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Seq != 1 {
		t.Fatalf("recovered %d batches, want the 1 intact one", len(rec.Batches))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported as truncated")
	}
	// Note: the failed append itself already truncated its partial bytes
	// before giving up; the recovery-side truncation path is what this
	// asserts, so re-tear the file by hand too.
}

func TestLogCorruptMidRecordTruncatesRest(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{Sync: SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for seq := uint64(1); seq <= 4; seq++ {
		offsets = append(offsets, int64(len(mem.Bytes(segmentName(1)))))
		if err := l.AppendBatch(seq, testUpdates(int(seq))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte inside batch 3's record.
	if err := mem.Corrupt(segmentName(1), int(offsets[2])+frameLen+2); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Batches) != 2 {
		t.Fatalf("recovered %d batches, want 2 (everything from the first bad record dropped)", len(rec.Batches))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("corruption not reported as truncation")
	}
	// The file must now end at the last good record so appends are clean.
	if got := int64(len(mem.Bytes(segmentName(1)))); got != offsets[2] {
		t.Fatalf("segment truncated to %d, want %d", got, offsets[2])
	}
}

func TestLogCheckpointRotationAndPruning(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{KeepCheckpoints: 2}))
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	ckpt := func(epoch uint64) {
		t.Helper()
		if err := l.WriteCheckpoint(&Checkpoint{Epoch: epoch, Stamp: seq, Snapshot: []byte("snap")}); err != nil {
			t.Fatalf("checkpoint at %d: %v", seq, err)
		}
	}
	step := func() {
		t.Helper()
		seq++
		if err := l.AppendBatch(seq, testUpdates(int(seq))); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendTick(seq, seq, 0); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < 3; i++ {
			step()
		}
		ckpt(uint64(100 + c))
	}
	step() // one batch past the last checkpoint

	names, _ := mem.List()
	var ckpts, segs []string
	for _, n := range names {
		if strings.HasSuffix(n, ".ckpt") {
			ckpts = append(ckpts, n)
		} else {
			segs = append(segs, n)
		}
	}
	if len(ckpts) != 2 {
		t.Fatalf("kept %d checkpoints (%v), want 2", len(ckpts), ckpts)
	}
	// Segments below the oldest kept checkpoint (stamp 6) must be gone:
	// wal-1 and wal-4 are covered, wal-7 and wal-10 are needed.
	for _, s := range segs {
		if start, _ := parseSegmentName(s); start < 7 {
			t.Fatalf("segment %s should have been pruned (have %v)", s, segs)
		}
	}

	_, rec, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Stamp != 9 || rec.Checkpoint.Epoch != 102 {
		t.Fatalf("recovered checkpoint %+v, want stamp 9 epoch 102", rec.Checkpoint)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Seq != 10 {
		t.Fatalf("recovered batches %+v, want just seq 10", rec.Batches)
	}
	if rec.NextSeq() != 11 {
		t.Fatalf("NextSeq = %d, want 11", rec.NextSeq())
	}
}

func TestLogCorruptCheckpointFallsBack(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{KeepCheckpoints: 2}))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(1, testUpdates(1))
	l.WriteCheckpoint(&Checkpoint{Epoch: 1, Stamp: 1, Snapshot: []byte("a")})
	l.AppendBatch(2, testUpdates(2))
	l.WriteCheckpoint(&Checkpoint{Epoch: 2, Stamp: 2, Snapshot: []byte("b")})
	l.AppendBatch(3, testUpdates(3))
	l.Close()

	if err := mem.Corrupt(checkpointName(2), 20); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.DroppedCheckpoints != 1 {
		t.Fatalf("DroppedCheckpoints = %d, want 1", rec.DroppedCheckpoints)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Stamp != 1 {
		t.Fatalf("recovered checkpoint %+v, want fallback to stamp 1", rec.Checkpoint)
	}
	// With the older checkpoint, batches 2 and 3 must both replay.
	if len(rec.Batches) != 2 || rec.Batches[0].Seq != 2 || rec.Batches[1].Seq != 3 {
		t.Fatalf("recovered batches %+v, want seqs 2,3", rec.Batches)
	}
}

func TestLogSequenceGapRejected(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(1, testUpdates(1))
	l.WriteCheckpoint(&Checkpoint{Epoch: 1, Stamp: 1, Snapshot: []byte("a")})
	l.AppendBatch(2, testUpdates(2))
	l.Close()

	// Simulate mixing files from different runs: replace the post-
	// checkpoint segment with one whose batches start at seq 5.
	mem.Remove(segmentName(2))
	other := NewMemFS()
	lo, _, _ := Open(other, noSleep(Options{}))
	lo.AppendBatch(1, testUpdates(1))
	lo.AppendBatch(2, testUpdates(2))
	lo.AppendBatch(3, testUpdates(3))
	lo.AppendBatch(4, testUpdates(4))
	lo.AppendBatch(5, testUpdates(5))
	lo.Close()
	seg := other.Bytes(segmentName(1))
	f, _ := mem.Create(segmentName(2))
	f.Write(seg[:headerLen])
	// Keep only batch 5's record: scan to find its frame.
	off := headerLen
	for i := 0; i < 4; i++ {
		plen := int(uint32(seg[off]) | uint32(seg[off+1])<<8 | uint32(seg[off+2])<<16 | uint32(seg[off+3])<<24)
		off += frameLen + plen
	}
	f.Write(seg[off:])
	f.Close()

	if _, _, err := Open(mem, noSleep(Options{})); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap not rejected: %v", err)
	}
}

func TestLogPendingOnlyAtTail(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(1, testUpdates(1))
	l.AppendPending(testUpdates(7))
	l.Close()

	_, rec, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pending == nil || !updatesEqual(*rec.Pending, testUpdates(7)) {
		t.Fatalf("tail pending not recovered: %+v", rec.Pending)
	}

	// A batch after the pending record supersedes it.
	l2, _, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	l2.AppendBatch(2, testUpdates(2))
	l2.Close()
	_, rec, err = Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pending != nil {
		t.Fatalf("superseded pending still recovered: %+v", rec.Pending)
	}
}

func TestLogAppendRetriesThenFails(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	var slept []time.Duration
	opts := Options{Retries: 3, RetryBase: 5 * time.Millisecond, RetryMax: 8 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	l, _, err := Open(ffs, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Two transient failures: the append must survive them.
	ffs.FailNextWrites(2)
	if err := l.AppendBatch(1, testUpdates(1)); err != nil {
		t.Fatalf("append with transient faults: %v", err)
	}
	if len(slept) != 2 || slept[0] != 5*time.Millisecond || slept[1] != 8*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [5ms 8ms] (doubling capped at 8ms)", slept)
	}

	// More failures than retries: the log must go failed and stay failed.
	ffs.FailNextWrites(10)
	if err := l.AppendBatch(2, testUpdates(2)); err == nil {
		t.Fatal("append with persistent faults succeeded")
	}
	if l.Err() == nil {
		t.Fatal("log not marked failed")
	}
	if err := l.AppendBatch(3, testUpdates(3)); err == nil {
		t.Fatal("append on failed log succeeded")
	}

	// The failed appends must not have left partial bytes: recovery sees
	// exactly batch 1.
	_, rec, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Seq != 1 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %+v (truncated %d), want exactly batch 1 and no truncation", rec.Batches, rec.TruncatedBytes)
	}
}

func TestLogCrashDuringCheckpointLeavesOldOne(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	l, _, err := Open(ffs, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(1, testUpdates(1))
	if err := l.WriteCheckpoint(&Checkpoint{Epoch: 1, Stamp: 1, Snapshot: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(2, testUpdates(2))
	// Crash mid-way through the next checkpoint's file write (torn tmp).
	ffs.CrashAfterWrites(ffs.Writes(), 10)
	if err := l.WriteCheckpoint(&Checkpoint{Epoch: 2, Stamp: 2, Snapshot: []byte("b")}); err == nil {
		t.Fatal("checkpoint during crash succeeded")
	}

	_, rec, err := Open(mem, noSleep(Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Stamp != 1 {
		t.Fatalf("recovered checkpoint %+v, want the intact stamp-1 one", rec.Checkpoint)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Seq != 2 {
		t.Fatalf("recovered batches %+v, want seq 2", rec.Batches)
	}
	names, _ := mem.List()
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("leftover tmp file %s after recovery", n)
		}
	}
}

func TestLogPowerCutRespectsFsyncPolicy(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{Sync: SyncTick}))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(1, testUpdates(1))
	l.AppendTick(1, 1, 0) // group-commit point: one fsync covers batch 1 + tick
	l.AppendBatch(2, testUpdates(2))
	// Power cut: only fsync'd bytes survive, which is everything up to the
	// last tick; the un-ticked batch 2 may be lost — indistinguishable from
	// its tick never happening, since the serving layer withholds
	// publication until the tick is durable.
	cut := mem.CrashClone(true)
	_, rec, err := Open(cut, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Seq != 1 || rec.Batches[0].Tick == nil {
		t.Fatalf("SyncTick power cut should keep exactly the ticked batch, got %+v", rec.Batches)
	}
	// A plain process kill keeps everything regardless of policy.
	kill := mem.CrashClone(false)
	_, rec, err = Open(kill, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 2 {
		t.Fatalf("kill -9 should keep both batches, got %+v", rec.Batches)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"tick": SyncTick, "": SyncTick, "never": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	for _, bad := range []string{"always", "bogus"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("policy %q accepted", bad)
		}
	}
}

func TestParseSyncSpec(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"tick": SyncTick, "": SyncTick, "never": SyncNever} {
		pol, every, err := ParseSyncSpec(in)
		if err != nil || pol != want || every != 0 {
			t.Fatalf("ParseSyncSpec(%q) = %v, %v, %v", in, pol, every, err)
		}
	}
	pol, every, err := ParseSyncSpec("interval=5ms")
	if err != nil || pol != SyncInterval || every != 5*time.Millisecond {
		t.Fatalf("ParseSyncSpec(interval=5ms) = %v, %v, %v", pol, every, err)
	}
	for _, bad := range []string{"interval=", "interval=0", "interval=-3ms", "interval=fast", "always", "bogus"} {
		if _, _, err := ParseSyncSpec(bad); err == nil {
			t.Fatalf("ParseSyncSpec(%q) accepted", bad)
		}
	}
}

// TestLogIntervalSyncBoundedLoss pins the SyncInterval durability contract:
// a power cut before the background timer fires loses at most the appends
// of that window, a process kill loses nothing, and a clean Close syncs
// everything regardless of the timer.
func TestLogIntervalSyncBoundedLoss(t *testing.T) {
	// Huge interval: the flusher never fires during the test, so the only
	// durability comes from clean shutdown — a power cut mid-run must
	// behave like SyncNever (torn tail truncated on recovery).
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{Sync: SyncInterval, SyncEvery: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch(1, testUpdates(1))
	l.AppendTick(1, 1, 0)
	cut := mem.CrashClone(true)
	_, rec, err := Open(cut, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 0 {
		t.Fatalf("power cut inside the interval window should lose the unsynced tick, got %+v", rec.Batches)
	}
	// A plain process kill keeps everything: the page cache persists.
	kill := mem.CrashClone(false)
	if _, rec, err = Open(kill, noSleep(Options{})); err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 {
		t.Fatalf("kill -9 under SyncInterval should keep the ticked batch, got %+v", rec.Batches)
	}
	// Clean Close syncs the dirty tail; nothing is lost to a later cut.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rec, err = Open(mem.CrashClone(true), noSleep(Options{})); err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 {
		t.Fatalf("clean shutdown should have synced the tick, got %+v", rec.Batches)
	}
}

// TestLogIntervalFlusherSyncs proves the background timer actually makes
// appends durable without any tick- or close-time fsync: after at most a
// couple of seconds a power-cut clone must contain the ticked batch.
func TestLogIntervalFlusherSyncs(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, noSleep(Options{Sync: SyncInterval, SyncEvery: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendBatch(1, testUpdates(1))
	l.AppendTick(1, 1, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, rec, err := Open(mem.CrashClone(true), noSleep(Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Batches) == 1 && rec.Batches[0].Tick != nil {
			return // the flusher made the window durable
		}
		if time.Now().After(deadline) {
			t.Fatalf("background flusher never synced the tick; recovered %+v", rec.Batches)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
