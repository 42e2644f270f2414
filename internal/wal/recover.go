package wal

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"roadknn/internal/core"
	"roadknn/internal/frame"
)

// TickRecord is the post-step marker logged after a batch was applied:
// the snapshot epoch/timestamp the engine reached and the CRC of its
// serialized result snapshot (0 = unverified).
type TickRecord struct {
	Epoch   uint64
	Stamp   uint64
	SnapCRC uint32
}

// BatchRecord is one logged per-tick batch awaiting replay. Tick is the
// marker that followed it, nil if the process died between logging the
// batch and completing the step — the batch is still replayed (it was
// acknowledged), there is just nothing to verify against.
type BatchRecord struct {
	Seq     uint64
	Updates core.Updates
	Tick    *TickRecord
}

// Recovery is what Open found in the store: the newest valid checkpoint
// (nil for a fresh log), the batches logged after it in sequence order,
// and an optional trailing pending batch from a clean shutdown. The
// serving layer feeds this to Server.Recover to rebuild the engine.
type Recovery struct {
	Checkpoint *Checkpoint
	Batches    []BatchRecord
	Pending    *core.Updates

	// TruncatedBytes is how much torn/corrupt log suffix was cut, and
	// TruncatedSegments how many whole segments after the corruption were
	// dropped. DroppedCheckpoints counts corrupt checkpoint files skipped
	// on the way to a valid one.
	TruncatedBytes     int64
	TruncatedSegments  int
	DroppedCheckpoints int
	// Segments is how many log segments were scanned.
	Segments int

	lastSeq        uint64
	lastSegSize    int64
	lastSegVersion uint32
}

// NextSeq returns the sequence number the next appended batch must use.
func (r *Recovery) NextSeq() uint64 { return r.lastSeq + 1 }

// LastSeq returns the highest batch sequence recovered (checkpoint stamp
// if the log held nothing newer).
func (r *Recovery) LastSeq() uint64 { return r.lastSeq }

// scanStore reads the whole store: picks the newest valid checkpoint,
// replays segment records in order, truncates at the first bad record,
// and removes leftover temp files. Returns the recovery result and the
// start sequence of the segment appends should continue in (0 = none,
// start fresh).
func scanStore(fs FS, opts Options) (*Recovery, uint64, error) {
	names, err := fs.List()
	if err != nil {
		return nil, 0, err
	}

	var ckptStamps []uint64
	var segStarts []uint64
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			fs.Remove(n) // leftover from a crashed checkpoint write
			continue
		}
		if s, ok := parseCheckpointName(n); ok {
			ckptStamps = append(ckptStamps, s)
		} else if s, ok := parseSegmentName(n); ok {
			segStarts = append(segStarts, s)
		}
	}
	sort.Slice(ckptStamps, func(i, j int) bool { return ckptStamps[i] > ckptStamps[j] })
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })

	rec := &Recovery{}
	for _, s := range ckptStamps {
		c, err := readCheckpoint(fs, checkpointName(s))
		if err != nil {
			rec.DroppedCheckpoints++
			fs.Remove(checkpointName(s))
			continue
		}
		rec.Checkpoint = c
		rec.lastSeq = c.Stamp
		break
	}

	// Drop segments that cannot contain anything past the checkpoint: a
	// segment covers [start, nextStart-1].
	if rec.Checkpoint != nil {
		for len(segStarts) > 1 && segStarts[1] <= rec.Checkpoint.Stamp+1 {
			segStarts = segStarts[1:]
		}
	}

	var lastSegStart uint64
	prevSeq := uint64(0)
	if rec.Checkpoint != nil {
		prevSeq = rec.Checkpoint.Stamp
	}
	corrupted := false
	for _, start := range segStarts {
		if corrupted {
			// Everything after the first bad record is unusable.
			fs.Remove(segmentName(start))
			rec.TruncatedSegments++
			continue
		}
		rec.Segments++
		lastSegStart = start
		v, size, lastGood, err := readSegment(fs, segmentName(start), func(payload []byte, v uint32) error {
			return applyRecord(payload, v, rec, &prevSeq)
		})
		if err != nil {
			return nil, 0, err
		}
		rec.lastSegSize, rec.lastSegVersion = size, v
		if lastGood < size || size < headerLen {
			// Bad record: cut the segment back to its last good byte.
			if lastGood < size {
				if terr := fs.Truncate(segmentName(start), lastGood); terr != nil {
					return nil, 0, fmt.Errorf("wal: truncating corrupt tail of %s: %w", segmentName(start), terr)
				}
				rec.TruncatedBytes += size - lastGood
				rec.lastSegSize = lastGood
			}
			corrupted = true
		}
	}
	if lastSegStart != 0 && rec.lastSegSize < int64(headerLen) {
		// A created-but-headerless segment (crash during rotation): let
		// Open recreate it.
		fs.Remove(segmentName(lastSegStart))
		lastSegStart = 0
	}

	if rec.Checkpoint != nil && len(rec.Batches) > 0 &&
		rec.Batches[0].Seq != rec.Checkpoint.Stamp+1 {
		return nil, 0, fmt.Errorf("wal: checkpoint/log mismatch: checkpoint at stamp %d but first logged batch is seq %d",
			rec.Checkpoint.Stamp, rec.Batches[0].Seq)
	}
	return rec, lastSegStart, nil
}

// readSegment reads the named segment and hands fn each verified record
// payload in order, with the segment's version. It returns the version, the
// file size and the offset just past the last good record: short of size
// when a torn or corrupt frame stopped the walk, zero when the file has no
// valid header. What to do about a short walk is the caller's policy
// (recovery truncates, tailing stops); an unsupported version or an error
// from fn aborts.
func readSegment(fs FS, name string, fn func(payload []byte, v uint32) error) (v uint32, size, good int64, err error) {
	r, err := fs.Open(name)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, 0, 0, err
	}
	size = int64(len(data))
	v, err = frame.ParseHeader(data, segMagic)
	if err != nil {
		return 0, size, 0, nil
	}
	if v < 1 || v > segVersion {
		return v, size, 0, fmt.Errorf("wal: %s: unsupported segment version %d", name, v)
	}
	rest := data[headerLen:]
	for {
		payload, next, err := frame.Next(rest, maxRecordLen)
		if err != nil { // io.EOF at the end, else the tail is torn or corrupt
			return v, size, size - int64(len(rest)), nil
		}
		if err := fn(payload, v); err != nil {
			return v, size, size - int64(len(rest)), err
		}
		rest = next
	}
}

// applyRecord folds one verified record of a segment of version v into the
// recovery state.
func applyRecord(payload []byte, v uint32, rec *Recovery, prevSeq *uint64) error {
	r, err := decodeRecord(payload, v)
	if err != nil {
		return err
	}
	switch r.typ {
	case recBatch:
		seq := r.seq
		if seq != *prevSeq+1 {
			if ckpt := rec.Checkpoint; ckpt != nil && seq <= ckpt.Stamp {
				// Old batch already folded into the checkpoint: skip, but
				// keep the contiguity cursor honest.
				if seq > *prevSeq {
					return fmt.Errorf("wal: batch sequence gap: got %d after %d", seq, *prevSeq)
				}
				rec.Pending = nil
				return nil
			}
			return fmt.Errorf("wal: batch sequence gap: got %d after %d", seq, *prevSeq)
		}
		*prevSeq = seq
		rec.lastSeq = seq
		rec.Pending = nil // any later batch supersedes a pending record
		if ckpt := rec.Checkpoint; ckpt != nil && seq <= ckpt.Stamp {
			return nil // already applied before the checkpoint
		}
		rec.Batches = append(rec.Batches, BatchRecord{Seq: seq, Updates: r.updates})
	case recTick:
		if n := len(rec.Batches); n > 0 && rec.Batches[n-1].Seq == r.tick.Stamp {
			t := r.tick // copied so that only a kept tick reaches the heap, not every record
			rec.Batches[n-1].Tick = &t
		}
		// A tick for a batch the checkpoint already covers carries no new
		// information; drop it.
	case recPending:
		u := r.updates
		rec.Pending = &u
	}
	return nil
}
