package serve

import (
	"fmt"
	"time"

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
// The rebuild is the tick protocol of tick.go under recovery's policies:
// the checkpoint is installed and verified byte for byte, each logged batch
// is replayed as its own tick and checked against its tick record, a failed
// check aborts with the server not-ready, and no replayed epoch is
// published — the broker restarts at the recovered snapshot.
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
	st.TruncatedBytes = rec.TruncatedBytes
	st.DroppedCheckpoints = rec.DroppedCheckpoints

	if c := rec.Checkpoint; c != nil {
		st.CheckpointStamp, st.CheckpointEpoch = c.Stamp, c.Epoch
		if err := s.installCheckpoint(c); err != nil {
			return st, err
		}
	}
	for _, b := range rec.Batches {
		if b.Seq != s.seq+1 {
			return st, fmt.Errorf("serve: replay out of order: batch %d after stamp %d", b.Seq, s.seq)
		}
		if _, err := s.replay(b); err != nil {
			return st, err
		}
		st.ReplayedBatches++
		st.ReplayedUpdates += len(b.Updates.Topology) + len(b.Updates.Objects) + len(b.Updates.Queries) + len(b.Updates.Edges)
		if b.Tick != nil && b.Tick.SnapCRC != 0 {
			st.VerifiedTicks++
		}
	}

	if rec.Pending != nil {
		// Re-queue without applying: the flush recorded updates that had
		// been acknowledged but not ticked, so they go back to exactly that
		// state and the next tick logs and applies them normally.
		s.batchMu.Lock()
		err := s.batch.Replay(*rec.Pending)
		s.batchMu.Unlock()
		if err != nil {
			return st, fmt.Errorf("serve: pending updates: %w", err)
		}
		st.PendingReplayed = true
	}

	st.Duration = time.Since(start)
	s.recoveryMS.Store(st.Duration.Milliseconds())
	// The recovered snapshot's delta is nil, so a pre-crash cursor that
	// somehow survived is resynchronized, never silently diverged.
	s.broker.reset(s.eng.Snapshot())
	s.ready.Store(true)
	s.broker.wake() // readers parked on ?since see the recovered epoch at once
	return st, nil
}
