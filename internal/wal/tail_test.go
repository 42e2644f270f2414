package wal

import (
	"io"
	"testing"
	"time"
)

func TestReadSince(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.AppendBatch(seq, testUpdates(int(seq))); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendTick(seq+100, seq, uint32(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// A trailing batch whose tick has not landed yet (mid-step window).
	if err := l.AppendBatch(5, testUpdates(5)); err != nil {
		t.Fatal(err)
	}

	recs, err := l.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("ReadSince(0) returned %d records, want 5", len(recs))
	}
	for i, b := range recs {
		seq := uint64(i + 1)
		if b.Seq != seq || !updatesEqual(b.Updates, testUpdates(int(seq))) {
			t.Fatalf("record %d mismatch: %+v", i, b)
		}
		if seq <= 4 {
			if b.Tick == nil || b.Tick.Epoch != seq+100 || b.Tick.SnapCRC != uint32(seq) {
				t.Fatalf("record %d tick mismatch: %+v", i, b.Tick)
			}
		} else if b.Tick != nil {
			t.Fatalf("trailing batch should be tickless, got %+v", b.Tick)
		}
	}

	recs, err = l.ReadSince(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 4 || recs[1].Seq != 5 {
		t.Fatalf("ReadSince(3) = %+v, want seqs 4,5", recs)
	}

	recs, err = l.ReadSince(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("ReadSince(0, max 2) = %+v, want seqs 1,2", recs)
	}

	recs, err = l.ReadSince(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("ReadSince at the tip returned %+v", recs)
	}
}

func TestReadSinceAcrossRotationAndPruning(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	appendTo := func(seq uint64) {
		t.Helper()
		if err := l.AppendBatch(seq, testUpdates(int(seq))); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendTick(seq, seq, 0); err != nil {
			t.Fatal(err)
		}
	}
	appendTo(1)
	appendTo(2)
	if err := l.WriteCheckpoint(&Checkpoint{Epoch: 2, Stamp: 2}); err != nil {
		t.Fatal(err)
	}
	appendTo(3)
	appendTo(4)
	if err := l.WriteCheckpoint(&Checkpoint{Epoch: 4, Stamp: 4}); err != nil {
		t.Fatal(err)
	}
	appendTo(5)

	// Tailing across the rotation boundary.
	recs, err := l.ReadSince(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("ReadSince(2) across rotation = %+v, want seqs 3..5", recs)
	}

	// KeepCheckpoints=2 pruned the pre-checkpoint-2 segment: a tailer at
	// cursor 0 sees a gap (first record is not seq 1). This is how the
	// shipping layer detects that a follower must re-bootstrap.
	recs, err = l.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Seq == 1 {
		t.Fatalf("expected a pruned gap at cursor 0, got %+v", recs)
	}
}

func TestEncodeDecodeRecords(t *testing.T) {
	tick := &TickRecord{Epoch: 9, Stamp: 2, SnapCRC: 77}
	in := []BatchRecord{
		{Seq: 1, Updates: testUpdates(1)},
		{Seq: 2, Updates: testUpdates(2), Tick: tick},
	}
	wire := EncodeRecords(nil, in)
	out, err := DecodeRecords(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Seq != 1 || out[0].Tick != nil {
		t.Fatalf("decoded %+v", out)
	}
	if out[1].Seq != 2 || out[1].Tick == nil || *out[1].Tick != *tick {
		t.Fatalf("decoded tick %+v", out[1].Tick)
	}
	if !updatesEqual(out[0].Updates, in[0].Updates) || !updatesEqual(out[1].Updates, in[1].Updates) {
		t.Fatal("decoded updates differ")
	}

	// Transport corruption is a hard error, not a silent truncation.
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeRecords(bad); err == nil {
		t.Fatal("corrupt stream decoded without error")
	}
	if _, err := DecodeRecords(wire[:len(wire)-3]); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
}

// checkpointImage reads the newest checkpoint's raw image through
// CheckpointReader, checking the size it declares.
func checkpointImage(t *testing.T, l *Log) ([]byte, uint64) {
	t.Helper()
	rc, size, stamp, err := l.CheckpointReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	img, err := io.ReadAll(rc)
	if err != nil || int64(len(img)) != size {
		t.Fatalf("checkpoint image: read %d of the %d bytes declared, %v", len(img), size, err)
	}
	return img, stamp
}

func TestCheckpointImageRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if rc, size, stamp, err := l.CheckpointReader(); rc != nil || size != 0 || stamp != 0 || err != nil {
		t.Fatalf("fresh log checkpoint reader = (%v, %d, %d, %v), want none", rc, size, stamp, err)
	}
	if err := l.AppendBatch(1, testUpdates(1)); err != nil {
		t.Fatal(err)
	}
	want := &Checkpoint{Epoch: 5, Stamp: 1, Snapshot: []byte("snap")}
	if err := l.WriteCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	img, stamp := checkpointImage(t, l)
	if stamp != 1 {
		t.Fatalf("checkpoint image stamp = %d", stamp)
	}
	got, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 5 || got.Stamp != 1 || string(got.Snapshot) != "snap" {
		t.Fatalf("decoded checkpoint %+v", got)
	}
	img[len(img)-1] ^= 0xff
	if _, err := DecodeCheckpoint(img); err == nil {
		t.Fatal("corrupt checkpoint image decoded without error")
	}
}

func TestAppendedNotifies(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, noSleep(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	ch := l.Appended()
	select {
	case <-ch:
		t.Fatal("channel closed before any append")
	default:
	}
	if err := l.AppendBatch(1, testUpdates(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("append did not wake the tailer")
	}
	// The replacement channel reports the next append.
	ch = l.Appended()
	if err := l.AppendTick(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("tick append did not wake the tailer")
	}
}
