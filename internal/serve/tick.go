package serve

import (
	"bytes"
	"fmt"
	"time"

	"roadknn"
	"roadknn/internal/core"
	"roadknn/internal/graph"
	"roadknn/internal/wal"
)

// This file is the tick protocol, written once. A live tick (Tick), a tick
// replayed from the log (Recover) and a tick shipped to a follower
// (ApplyReplicated) are the same sequence, and produce the same bytes
// because they run the same code:
//
//  1. the batch goes through the Batcher and is drained;
//  2. step: Engine.Step, the topology re-snaps reconciled into the
//     batcher's applied state, sequence and counters advanced;
//  3. the tick's snapshot is checked against its tick record — epoch,
//     timestamp, CRC of the canonical encoding — when there is one, and
//     the CRC is what a live primary writes into that record.
//
// A tick publishes exactly one epoch. Path costs are exact (graph.Quantum),
// so an engine's rows are a function of its network, objects and queries,
// not of the history that led there: an engine seeded from a checkpoint
// equals the one that wrote it, and nothing is canonicalised at a
// checkpoint. CheckpointEvery is the primary's business alone.
//
// advance is steps 2-3. What differs between the three is policy and stays
// with the caller: where the batch comes from (pending reports, logged
// before they are committed, or a logged batch replayed into the batcher),
// what a failed check does (recovery aborts and the server stays not-ready;
// a follower is poisoned read-only), and whether the tick's epoch reaches
// the broker (live and follower: yes; recovery: no, the broker is reset
// once at the end — a replayed epoch never had a subscriber, and filling
// the ring would cost recovery a collection cycle).

// ticked is what one tick produced: snap is the snapshot the tick record
// describes, crc the checksum of its canonical encoding (0 when nothing
// needed one).
type ticked struct {
	snap *roadknn.Snapshot
	crc  uint32
}

// step applies u as tick seq (stepMu held): the one place the engine steps.
func (s *Server) step(seq uint64, u roadknn.Updates) {
	start := time.Now()
	s.eng.Step(u)
	if len(u.Topology) > 0 {
		// Propagate the engine-side re-snaps of the batch's edge removals
		// into the batcher's applied state (see Batcher.ReconcileTopology).
		s.batchMu.Lock()
		s.batch.ReconcileTopology(u.Topology, s.eng.Network())
		s.batchMu.Unlock()
	}
	s.stepNanos.Add(time.Since(start).Nanoseconds())
	s.steps.Add(1)
	s.seq = seq
}

// advance applies the drained batch u as tick seq (stepMu held) and, when
// want is the tick's logged record, verifies that the engine reproduced it.
// Determinism is verified, not assumed: a mismatch is almost always a
// different network file than the record was written against. With no
// record to check (a live tick, or a replayed batch whose tick record was
// lost to a torn write) advance cannot fail.
func (s *Server) advance(seq uint64, u roadknn.Updates, want *wal.TickRecord) (ticked, error) {
	s.step(seq, u)
	t := ticked{snap: s.eng.Snapshot()}
	if want != nil && (t.snap.Epoch() != want.Epoch || t.snap.Timestamp() != want.Stamp) {
		return t, fmt.Errorf("serve: tick %d reached epoch %d/stamp %d, its record says %d/%d",
			seq, t.snap.Epoch(), t.snap.Timestamp(), want.Epoch, want.Stamp)
	}
	// CRC32 encodes a few KiB at a time and memoises the value /v1/stats
	// reports. A record with SnapCRC 0 was written with verification off.
	if (want == nil && s.cfg.WAL != nil) || (want != nil && want.SnapCRC != 0) {
		t.crc = t.snap.CRC32()
		if want != nil && t.crc != want.SnapCRC {
			return t, fmt.Errorf("serve: tick %d produced snapshot crc %08x, its record says %08x "+
				"(is this the network file the log was written against?)", seq, t.crc, want.SnapCRC)
		}
	}
	return t, nil
}

// replay applies one logged batch as its tick (stepMu held): the batch is
// fed back through the batcher, so applied state, id assignment and the
// drained Updates are exactly those of the tick that logged it.
func (s *Server) replay(b wal.BatchRecord) (ticked, error) {
	s.batchMu.Lock()
	err := s.batch.Replay(b.Updates)
	u := s.batch.Drain()
	s.batchMu.Unlock()
	if err != nil {
		return ticked{}, fmt.Errorf("serve: tick %d: %w", b.Seq, err)
	}
	return s.advance(b.Seq, u, b.Tick)
}

// publish hands a tick's epoch to the broker and wakes the waiters.
func (s *Server) publish(t ticked) {
	s.broker.publish(t.snap)
	s.broker.wake()
}

// Tick drains the pending batch, applies it as one timestamp, and wakes
// long-pollers. It returns the newest published snapshot. With a WAL the
// batch is logged before the engine steps: if the append fails (after its
// internal retries) the batch stays pending, the engine does not advance
// — its state still matches the log exactly — and the server degrades to
// read-only. On a follower, before recovery finishes, and after a WAL
// failure, Tick is a no-op.
func (s *Server) Tick() *roadknn.Snapshot {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if s.cfg.Follower || !s.ready.Load() || s.readOnly.Load() {
		return s.broker.newest()
	}
	w := s.cfg.WAL
	s.batchMu.Lock()
	var u roadknn.Updates
	if w != nil {
		// Log first, commit after: Preview leaves the batcher untouched, so
		// a failed append loses nothing — the updates stay pending (and a
		// clean shutdown still flushes them as a pending record). While the
		// append retries with backoff, batchMu stays held: ingestion blocks
		// behind the slow disk instead of growing an unbounded queue, and
		// MaxPending caps what can pile up once it resumes.
		u = s.batch.Preview()
		if err := w.AppendBatch(s.seq+1, u); err != nil {
			s.batchMu.Unlock()
			s.setReadOnly(err)
			return s.broker.newest()
		}
		s.batch.commit()
	} else {
		u = s.batch.Drain()
	}
	s.batchMu.Unlock()
	t, _ := s.advance(s.seq+1, u, nil) // no record to verify against
	if w != nil {
		if err := w.AppendTick(t.snap.Epoch(), t.snap.Timestamp(), t.crc); err != nil {
			// Further writes must stop. Under SyncTick the batch's fsync was
			// deferred to this append: the epoch is exactly what "no client
			// observes results a power cut could lose" forbids, and it is
			// never published. Under never and interval the batch is as
			// durable as the policy promises and only the applied marker is
			// lost (recovery replays the batch unverified), so the epoch is
			// served.
			s.setReadOnly(err)
			if w.Policy() != wal.SyncTick {
				s.publish(t)
			}
			return s.broker.newest()
		}
	}
	s.publish(t)
	if w != nil && s.cfg.CheckpointEvery > 0 && s.seq%uint64(s.cfg.CheckpointEvery) == 0 {
		s.writeCheckpoint(t.snap)
	}
	return s.broker.newest()
}

// writeCheckpoint (stepMu held) persists the tick's state: the batcher's
// applied objects, queries and topology op log, which coincide with the
// engine's at a tick boundary; every live edge's weight, read from the
// engine's graph, which no Step changes while stepMu is held; and snap's
// exactly sized encoding for installCheckpoint to verify against. Failures
// are recorded for /v1/stats and retried at the next interval — the log
// keeps growing meanwhile, so nothing is lost.
func (s *Server) writeCheckpoint(snap *roadknn.Snapshot) {
	s.batchMu.Lock()
	objs, qrys, topo := s.batch.CheckpointState()
	s.batchMu.Unlock()
	g := s.eng.Network().G
	edges := make([]wal.EdgeState, 0, g.NumLiveEdges())
	g.ForEachEdge(func(e *graph.Edge) { edges = append(edges, wal.EdgeState{Edge: e.ID, W: e.W}) })
	err := s.cfg.WAL.WriteCheckpoint(&wal.Checkpoint{
		Epoch:    snap.Epoch(),
		Stamp:    s.seq,
		Objects:  objs,
		Queries:  qrys,
		Edges:    edges,
		Topology: topo,
		Snapshot: snap.AppendBinary(make([]byte, 0, snap.EncodedLen())),
	})
	s.walErrMu.Lock()
	s.ckptErr = ""
	if err != nil {
		s.ckptErr = err.Error()
	}
	s.walErrMu.Unlock()
	if err != nil && s.cfg.WAL.Err() != nil {
		s.setReadOnly(s.cfg.WAL.Err())
	}
}

// installCheckpoint (stepMu held) seeds a never-stepped engine from c: the
// applied state goes through the batcher as one batch, the clock is
// restored to the checkpoint's epoch and timestamp, and the engine's
// snapshot, computed from scratch, must match the checkpointed one byte for
// byte. c.Edges sets each listed edge's weight after the topology ops; an
// edge it does not list keeps the weight the network file or its insertion
// gave it. So an image that lists every live edge and an older one that
// lists only the edges reported since startup install alike.
func (s *Server) installCheckpoint(c *wal.Checkpoint) error {
	cr, ok := s.eng.(core.ClockRestorer)
	if !ok {
		return fmt.Errorf("serve: engine %s cannot restore its clock", s.eng.Name())
	}
	s.batchMu.Lock()
	// The topology op log replays first (via the batch's Topology section,
	// which Step applies before everything else): it reconstructs the exact
	// edge set — including deterministic id reuse — that the checkpointed
	// positions and weights refer to.
	if err := s.batch.Replay(roadknn.Updates{Topology: c.Topology}); err != nil {
		s.batchMu.Unlock()
		return fmt.Errorf("serve: checkpoint (stamp %d): %w", c.Stamp, err)
	}
	for _, e := range c.Edges {
		s.batch.edge(e.Edge, e.W)
	}
	for _, o := range c.Objects {
		s.batch.object(o.ID, o.Pos)
	}
	for _, q := range c.Queries {
		s.batch.query(roadknn.QueryID(q.ID), int(q.K), q.Pos)
	}
	u := s.batch.Drain()
	s.batchMu.Unlock()
	s.step(c.Stamp, u)
	cr.RestoreClock(c.Epoch, c.Stamp)
	if !bytes.Equal(s.eng.Snapshot().AppendBinary(make([]byte, 0, len(c.Snapshot))), c.Snapshot) {
		return fmt.Errorf("serve: checkpoint install diverged from the checkpointed snapshot "+
			"(stamp %d): is this the network file it was written against?", c.Stamp)
	}
	return nil
}
