package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"roadknn/internal/frame"
	"roadknn/internal/wal"
)

// This file is the log-shipping layer of the replicated serve tier. The
// primary exposes its sequenced WAL as three endpoints; followers (driven
// by internal/cluster) bootstrap from the newest checkpoint, then tail
// the batch/tick record stream and replay it through the tick protocol
// Server.Recover runs (tick.go) — the deterministic Batcher→Step path plus
// per-tick snapshot-CRC verification — so a caught-up follower's
// snapshot at epoch e is byte-identical to the primary's.
//
//	GET /v1/replication/info        JSON handshake: engine name, log
//	                                position
//	GET /v1/replication/checkpoint  the newest checkpoint image, raw
//	                                (204 when none exists yet)
//	GET /v1/replication/log?since=S the WAL records after sequence S: a
//	                                frame stream (internal/frame) under
//	                                the header "RKRL" | version 2, the
//	                                frames being wal.EncodeRecords'
//	                                (version 1 carried the RKWL v1
//	                                object entry).
//	                                Long-polls up to ?wait_ms; answers
//	                                410 Gone when S has been pruned away
//	                                (the follower must re-bootstrap from
//	                                the current checkpoint)
//
// Epoch alignment needs no extra protocol: in serve mode an applied tick
// advances the epoch by exactly one, so a follower reproduces the
// primary's epoch numbering by construction, whatever either side's
// CheckpointEvery — and the tick records prove it, carrying the expected
// epoch and snapshot CRC for every applied batch.

const (
	// replLogMagic/replLogVersion frame the /v1/replication/log body.
	replLogMagic   = "RKRL"
	replLogVersion = 2
	// replLogMaxRecords caps records per log response, bounding response
	// size; the follower simply asks again from its advanced cursor.
	replLogMaxRecords = 512

	// checkpointStampHeader carries the checkpoint's stamp on
	// /v1/replication/checkpoint responses.
	checkpointStampHeader = "X-Roadknn-Checkpoint-Stamp"
)

// ReplicationInfo is the GET /v1/replication/info document: what a
// follower needs before constructing its mirror server.
type ReplicationInfo struct {
	Engine          string `json:"engine"`
	LastSeq         uint64 `json:"last_seq"`
	CheckpointStamp uint64 `json:"checkpoint_stamp"`
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	Epoch           uint64 `json:"epoch"`
}

func (s *Server) handleReplicationInfo(w http.ResponseWriter, r *http.Request) {
	l := s.cfg.WAL
	writeJSON(w, ReplicationInfo{
		Engine:          s.eng.Name(),
		LastSeq:         l.LastSeq(),
		CheckpointStamp: l.CheckpointStamp(),
		CheckpointEpoch: l.CheckpointEpoch(),
		Epoch:           s.broker.newest().Epoch(),
	})
}

// replCheckpointChunk is the copy granularity of the checkpoint stream:
// large enough to amortize syscalls, small enough that a handler never
// pins a full checkpoint image in memory.
const replCheckpointChunk = 256 << 10

func (s *Server) handleReplicationCheckpoint(w http.ResponseWriter, r *http.Request) {
	rc, size, stamp, err := s.cfg.WAL.CheckpointReader()
	if err != nil {
		http.Error(w, "reading checkpoint: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if rc == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(checkpointStampHeader, strconv.FormatUint(stamp, 10))
	// The declared length comes from the image's own header, so a follower
	// whose transfer is cut mid-stream sees a short body and rejects it
	// (the image's CRC is re-verified on decode regardless).
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	fl, _ := w.(http.Flusher)
	buf := make([]byte, replCheckpointChunk)
	for {
		n, rerr := rc.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away mid-stream
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			// io.EOF ends the stream; a mid-file read failure cuts the body
			// short of the declared length, which the follower detects.
			return
		}
	}
}

// AppendReplLogHeader appends the log response header to buf (exported
// for the cluster package's decoder and tests).
func AppendReplLogHeader(buf []byte) []byte {
	return frame.AppendHeader(buf, replLogMagic, replLogVersion)
}

// DecodeReplLog strips and verifies the log response header and decodes
// the records after it.
func DecodeReplLog(body []byte) ([]wal.BatchRecord, error) {
	v, err := frame.ParseHeader(body, replLogMagic)
	if err != nil {
		return nil, fmt.Errorf("serve: replication log: %w", err)
	}
	if v != replLogVersion {
		return nil, fmt.Errorf("serve: unsupported replication log version %d", v)
	}
	return wal.DecodeRecords(body[frame.HeaderLen:])
}

// handleReplicationLog streams the WAL records after ?since=S. A batch
// whose tick has not been logged yet is withheld: it sits in the
// mid-step window, and under group commit its bytes may not be durable —
// followers must never externalize results the primary has not.
func (s *Server) handleReplicationLog(w http.ResponseWriter, r *http.Request) {
	sub, wait, ok := s.subscribe(w, r)
	if !ok {
		return
	}
	since := sub.since // a log sequence here, not an epoch
	l := s.cfg.WAL
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		// Grab the wake channel before reading: an append between the read
		// and the wait would otherwise be missed.
		ch := l.Appended()
		recs, err := l.ReadSince(since, replLogMaxRecords)
		if err != nil {
			http.Error(w, "reading log: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if len(recs) > 0 && recs[0].Seq != since+1 {
			// The records after `since` were pruned by a checkpoint rotation:
			// this cursor can never be served contiguously again.
			http.Error(w, fmt.Sprintf("log pruned past sequence %d (first available is %d): bootstrap from the checkpoint",
				since, recs[0].Seq), http.StatusGone)
			return
		}
		if n := len(recs); n > 0 && recs[n-1].Tick == nil {
			recs = recs[:n-1]
		}
		if len(recs) > 0 {
			body := AppendReplLogHeader(nil)
			body = wal.EncodeRecords(body, recs)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-Roadknn-Last-Seq", strconv.FormatUint(recs[len(recs)-1].Seq, 10))
			w.Write(body)
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			// Nothing newer within the window: an empty (header-only) body.
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(AppendReplLogHeader(nil))
			return
		case <-r.Context().Done():
			return
		case <-s.stopc:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(AppendReplLogHeader(nil))
			return
		}
	}
}

// ---- follower side ----

// BootstrapFollower seeds a follower server from a primary checkpoint
// (nil when the primary has not checkpointed yet — the follower then
// replays the log from sequence 0) and marks it ready: a recovery whose log
// tail is still to come. Must be called once, before any ApplyReplicated.
func (s *Server) BootstrapFollower(c *wal.Checkpoint) error {
	if !s.cfg.Follower {
		return fmt.Errorf("serve: BootstrapFollower on a non-follower server")
	}
	_, err := s.Recover(&wal.Recovery{Checkpoint: c})
	return err
}

// ApplyReplicated replays one shipped batch record as a tick: the tick
// protocol of tick.go under a follower's policies. Every tick's epoch is
// published, so epochs stay aligned with the primary's; a failed check
// poisons the follower (healthz turns 503, the
// router stops routing to it) — divergence must never be served.
func (s *Server) ApplyReplicated(b wal.BatchRecord) error {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if !s.cfg.Follower {
		return fmt.Errorf("serve: ApplyReplicated on a non-follower server")
	}
	if !s.ready.Load() {
		return fmt.Errorf("serve: ApplyReplicated before BootstrapFollower")
	}
	if s.readOnly.Load() {
		return fmt.Errorf("serve: follower is poisoned: %s", s.walErrString())
	}
	if b.Seq <= s.seq {
		return nil // duplicate delivery: already applied
	}
	if b.Seq != s.seq+1 {
		return fmt.Errorf("serve: replication gap: batch %d after sequence %d", b.Seq, s.seq)
	}
	t, err := s.replay(b)
	if err != nil {
		s.setReadOnly(err)
		return err
	}
	s.publish(t)
	return nil
}

// walErrString returns the recorded failure cause (empty when healthy).
func (s *Server) walErrString() string {
	s.walErrMu.Lock()
	defer s.walErrMu.Unlock()
	return s.walErr
}
