package wal

import (
	"fmt"
	"io"
	"sort"

	"roadknn/internal/frame"
)

// This file is the log-shipping side of the WAL: a tailing reader over
// the segment files plus an exported record codec, so a primary can
// stream its sequenced batch/tick records to follower replicas over any
// transport while reusing the exact on-disk framing (internal/frame).

// ReadSince returns the batch records with sequence > afterSeq currently
// in the store, in order, with their tick markers attached where the
// tick has been written. max > 0 caps the result count. A torn or
// corrupt tail simply ends the read (the records before it are still
// returned): tailers retry after the next append. Unlike recovery, no
// truncation happens here — ReadSince never mutates the store.
func (l *Log) ReadSince(afterSeq uint64, max int) ([]BatchRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	names, err := l.fs.List()
	if err != nil {
		return nil, err
	}
	var segStarts []uint64
	for _, n := range names {
		if s, ok := parseSegmentName(n); ok {
			segStarts = append(segStarts, s)
		}
	}
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })
	// A segment covers [start, nextStart-1]: it is disposable when even
	// its successor's range begins at or below afterSeq+1.
	for len(segStarts) > 1 && segStarts[1] <= afterSeq+1 {
		segStarts = segStarts[1:]
	}

	var out []BatchRecord
	for _, start := range segStarts {
		_, size, good, err := readSegment(l.fs, segmentName(start), func(payload []byte, v uint32) error {
			return tailRecord(payload, v, afterSeq, &out)
		})
		if err != nil {
			return nil, err
		}
		if good < size || size < headerLen {
			// A torn or corrupt record ended the walk: later segments must
			// not be read, they would open a sequence gap.
			break
		}
		if max > 0 && len(out) >= max {
			out = out[:max]
			break
		}
	}
	return out, nil
}

// tailRecord folds one verified record of a segment of version v into out,
// skipping batches at or below the cursor and pending records (they are a
// shutdown artifact, not part of the replicated stream).
func tailRecord(payload []byte, v uint32, afterSeq uint64, out *[]BatchRecord) error {
	r, err := decodeRecord(payload, v)
	if err != nil {
		return err
	}
	switch r.typ {
	case recBatch:
		if r.seq > afterSeq {
			*out = append(*out, BatchRecord{Seq: r.seq, Updates: r.updates})
		}
	case recTick:
		if n := len(*out); n > 0 && (*out)[n-1].Seq == r.tick.Stamp {
			t := r.tick
			(*out)[n-1].Tick = &t
		}
	}
	return nil
}

// EncodeRecords appends the framed wire form of recs to buf (the same
// frame-and-CRC layout as the on-disk segments, minus the segment
// header) and returns the extended slice. Each batch is followed by its
// tick record when present.
func EncodeRecords(buf []byte, recs []BatchRecord) []byte {
	for i := range recs {
		b := &recs[i]
		buf = append(buf, encodeBatch(b.Seq, b.Updates)...)
		if b.Tick != nil {
			buf = append(buf, encodeTick(b.Tick.Epoch, b.Tick.Stamp, b.Tick.SnapCRC)...)
		}
	}
	return buf
}

// DecodeRecords parses a framed record stream produced by EncodeRecords
// (records of the current segment version, whatever segment they were
// read from). Unlike segment recovery, any torn frame or CRC mismatch is a hard
// error: transports deliver byte streams intact or not at all, so
// corruption here means a protocol bug, not a crash artifact.
func DecodeRecords(data []byte) ([]BatchRecord, error) {
	var out []BatchRecord
	for rest := data; ; {
		payload, next, err := frame.Next(rest, maxRecordLen)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("wal: record stream at offset %d: %w", len(data)-len(rest), err)
		}
		if err := tailRecord(payload, segVersion, 0, &out); err != nil {
			return nil, err
		}
		rest = next
	}
}

// DecodeCheckpoint parses an encoded checkpoint image (as produced by
// WriteCheckpoint and streamed by CheckpointReader), verifying its magic,
// version and CRC.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return decodeCheckpoint(data)
}
