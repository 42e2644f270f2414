package serve

import (
	"bytes"
	"fmt"
	"time"

	"roadknn"
	"roadknn/internal/core"
	"roadknn/internal/wal"
)

// RecoveryStats summarizes what Recover did.
type RecoveryStats struct {
	// CheckpointStamp/CheckpointEpoch identify the checkpoint the engine
	// was rebuilt from (both 0 when recovery started from an empty log).
	CheckpointStamp uint64
	CheckpointEpoch uint64
	// ReplayedBatches is how many logged batches were re-applied after the
	// checkpoint; ReplayedUpdates counts the individual updates in them.
	ReplayedBatches int
	ReplayedUpdates int
	// PendingReplayed reports whether a shutdown-flushed pending batch was
	// re-queued into the batcher (it will be applied at the next tick).
	PendingReplayed bool
	// VerifiedTicks is how many replayed ticks were checked against their
	// logged snapshot CRC.
	VerifiedTicks int
	// TruncatedBytes/DroppedCheckpoints carry over the scan's corruption
	// repairs (see wal.Recovery).
	TruncatedBytes     int64
	DroppedCheckpoints int
	// Duration is how long the rebuild and replay took.
	Duration time.Duration
}

// Recover rebuilds the engine from a wal.Recovery and marks the server
// ready. It must be called exactly once, on a freshly constructed server
// whose engine has never stepped, before Start (the wall-clock stepper
// no-ops until recovery finishes, but nothing should race the rebuild).
//
// The rebuild runs the same deterministic Batcher→Engine path as live
// ticks: the checkpoint's applied state is installed as one batch and the
// clock restored to the checkpoint's epoch/timestamp, then each logged
// batch is replayed as its own tick. Determinism is verified, not
// assumed — the rebuilt snapshot must match the checkpoint's serialized
// snapshot byte for byte, and every replayed tick's snapshot CRC must
// match the logged one. A mismatch (almost always a different -net file
// than the log was written against) aborts with an error and the server
// stays not-ready.
func (s *Server) Recover(rec *wal.Recovery) (RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats
	if rec == nil {
		s.ready.Store(true)
		return st, nil
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if s.ready.Load() {
		return st, fmt.Errorf("serve: Recover on a ready server")
	}
	if s.seq != 0 || s.steps.Load() != 0 {
		return st, fmt.Errorf("serve: Recover on a server that has already stepped")
	}
	cr, ok := s.eng.(core.ClockRestorer)
	if !ok {
		return st, fmt.Errorf("serve: engine %s cannot restore its clock", s.eng.Name())
	}

	st.TruncatedBytes = rec.TruncatedBytes
	st.DroppedCheckpoints = rec.DroppedCheckpoints
	// One encoding buffer serves every verification below: a buffer per
	// replayed tick would be a third of what recovery allocates, enough to
	// pull a collection cycle into it.
	var enc []byte

	if c := rec.Checkpoint; c != nil {
		st.CheckpointStamp, st.CheckpointEpoch = c.Stamp, c.Epoch
		s.batchMu.Lock()
		// The topology op log replays first (via the batch's Topology
		// section, which Step applies before everything else): it
		// reconstructs the exact edge set — including deterministic id
		// reuse — that the checkpointed positions and weight overrides
		// refer to.
		s.batch.Replay(roadknn.Updates{Topology: c.Topology})
		for _, e := range c.Edges {
			s.batch.Edge(e.Edge, e.W)
		}
		for _, o := range c.Objects {
			s.batch.Object(o.ID, o.Pos)
		}
		for _, q := range c.Queries {
			s.batch.Query(roadknn.QueryID(q.ID), int(q.K), q.Pos)
		}
		u := s.batch.Drain()
		s.batchMu.Unlock()
		s.eng.Step(u)
		s.reconcileTopology(u)
		cr.RestoreClock(c.Epoch, c.Stamp)
		enc = s.eng.Snapshot().AppendBinary(make([]byte, 0, len(c.Snapshot)))
		if !bytes.Equal(enc, c.Snapshot) {
			return st, fmt.Errorf("serve: checkpoint rebuild diverged from the checkpointed snapshot "+
				"(stamp %d): is this the network file the log was written against?", c.Stamp)
		}
		s.seq = c.Stamp
	}

	for _, b := range rec.Batches {
		if b.Seq != s.seq+1 {
			return st, fmt.Errorf("serve: replay out of order: batch %d after stamp %d", b.Seq, s.seq)
		}
		s.batchMu.Lock()
		s.batch.Replay(b.Updates)
		u := s.batch.Drain()
		s.batchMu.Unlock()
		s.eng.Step(u)
		s.reconcileTopology(u)
		s.seq = b.Seq
		st.ReplayedBatches++
		st.ReplayedUpdates += len(b.Updates.Topology) + len(b.Updates.Objects) + len(b.Updates.Queries) + len(b.Updates.Edges)
		if t := b.Tick; t != nil {
			snap := s.eng.Snapshot()
			if snap.Epoch() != t.Epoch || snap.Timestamp() != t.Stamp {
				return st, fmt.Errorf("serve: replay of batch %d reached epoch %d/stamp %d, log says %d/%d",
					b.Seq, snap.Epoch(), snap.Timestamp(), t.Epoch, t.Stamp)
			}
			if t.SnapCRC != 0 {
				var crc uint32
				if crc, enc = snap.CRC(enc[:0]); crc != t.SnapCRC {
					return st, fmt.Errorf("serve: replay of batch %d produced snapshot crc %08x, log says %08x "+
						"(is this the network file the log was written against?)", b.Seq, crc, t.SnapCRC)
				}
				st.VerifiedTicks++
			}
		}
		// Reproduce the live run's checkpoint-boundary canonicalization.
		// The original server Rebuilds at every CheckpointEvery-th tick
		// (see checkpointLocked); a replay that crossed such a boundary
		// without rebuilding would drift from the pre-crash engine — one
		// epoch behind and off in the last float bits. The rule is a pure
		// function of the tick number, so replay applies it at exactly the
		// same points without needing any marker in the log (which could
		// itself be lost to a torn write).
		if s.cfg.CheckpointEvery > 0 && b.Seq%uint64(s.cfg.CheckpointEvery) == 0 {
			if rb, ok := s.eng.(core.Rebuilder); ok {
				rb.Rebuild()
			}
		}
	}

	if rec.Pending != nil {
		// Re-queue without applying: the flush recorded updates that had
		// been acknowledged but not ticked, so they go back to exactly that
		// state and the next tick logs and applies them normally.
		s.batchMu.Lock()
		s.batch.Replay(*rec.Pending)
		s.batchMu.Unlock()
		st.PendingReplayed = true
	}

	st.Duration = time.Since(start)
	s.recoveryMS.Store(st.Duration.Milliseconds())
	// Replayed epochs never reached subscribers; the broker restarts at the
	// recovered snapshot (whose delta is nil, so a pre-crash cursor that
	// somehow survived would be resynchronized, never silently diverged).
	s.broker.reset(s.eng.Snapshot())
	s.ready.Store(true)
	s.broker.wake() // readers parked on ?since see the recovered epoch at once
	return st, nil
}
